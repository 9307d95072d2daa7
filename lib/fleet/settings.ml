(* One row per run setting; see settings.mli. Rows are applied in list
   order, so a strategy's or retention's parameters follow it. *)

open Job

type _ kind =
  | Int : { min : int } -> int kind
  | Fraction : float kind
  | Name : { what : string; known : unit -> string list } -> string kind

type 'a cli = Opt of string | Flag of string * 'a

type 'a t = {
  field : string;
  cli : 'a cli;
  docv : string;
  kind : 'a kind;
  doc : string;
  get : Job.t -> 'a option;
  set : 'a -> Job.t -> Job.t;
}

type row = Row : 'a t -> row

(* The parameters a strategy or retention brings with it when chosen;
   every other default is [base]'s. *)
let default_lookahead = 2
let default_predictor = "profile"
let default_weight = 1
let default_fraction = 0.5

let row ?cli ~docv ~doc field kind get set =
  let cli = Option.value cli ~default:(Opt field) in
  { field; cli; docv; kind; doc; get; set }

(* A closed set of names: [cases] maps each name to its effect on a
   job; [name_of] reads it back. *)
let choice ?cli ~what ~docv ~doc field cases name_of =
  let known () = List.map fst cases in
  row ?cli ~docv ~doc field (Name { what; known }) name_of (fun name j ->
      List.assoc name cases j)

(* A canonical rendering without its parameters ("pre-all:2" names
   pre-all): the names are the content key's, frozen with it. *)
let named to_string v = Some (List.hd (String.split_on_char ':' (to_string v)))

let codec =
  let known () = "code" :: Compress.Registry.names () in
  row "codec" ~docv:"CODEC"
    ~doc:
      "Codec the image is compressed with: a registered codec (see ccomp \
       compress --list), or code, the positional shared-Huffman model \
       trained on the workload itself."
    (Name { what = "codec"; known })
    (fun j -> Some j.codec)
    (fun codec j -> { j with codec })

let k =
  row "k" ~docv:"K" ~doc:"k of the k-edge compression algorithm."
    (Int { min = 1 })
    (fun j -> Some j.k)
    (fun k j -> { j with k })

let strategy =
  let lookahead = default_lookahead and predictor = default_predictor in
  choice "strategy" ~what:"strategy" ~docv:"STRATEGY"
    ~doc:
      "Decompression strategy: on demand, or ahead of execution for every \
       block (pre-all) or only the predicted one (pre-single) within the \
       lookahead."
    [
      ("on-demand", fun j -> { j with strategy = On_demand });
      ("pre-all", fun j -> { j with strategy = Pre_all { lookahead } });
      ( "pre-single",
        fun j -> { j with strategy = Pre_single { lookahead; predictor } } );
    ]
    (fun j -> named strategy_to_string j.strategy)

let lookahead =
  row "lookahead" ~docv:"K"
    ~doc:
      (Printf.sprintf
         "Pre-decompression distance in edges (pre-all and pre-single; %d \
          when not given)."
         default_lookahead)
    (Int { min = 1 })
    (fun j ->
      match j.strategy with
      | On_demand -> None
      | Pre_all { lookahead } | Pre_single { lookahead; _ } -> Some lookahead)
    (fun lookahead j ->
      match j.strategy with
      | On_demand -> j
      | Pre_all _ -> { j with strategy = Pre_all { lookahead } }
      | Pre_single p -> { j with strategy = Pre_single { p with lookahead } })

let predictor =
  let set predictor j =
    match j.strategy with
    | Pre_single p -> { j with strategy = Pre_single { p with predictor } }
    | On_demand | Pre_all _ -> j
  in
  choice "predictor" ~what:"predictor" ~docv:"PRED"
    ~doc:
      (Printf.sprintf
         "Which successor pre-single decompresses ahead (%s when not given)."
         default_predictor)
    (List.map
       (fun p -> (p, set p))
       [ default_predictor; "first"; "last-taken" ])
    (fun j ->
      match j.strategy with
      | Pre_single { predictor; _ } -> Some predictor
      | On_demand | Pre_all _ -> None)

let mode =
  choice "mode"
    ~cli:(Flag ("recompress", "recompress"))
    ~what:"mode" ~docv:"MODE"
    ~doc:
      "Compression mode: recompress finished blocks in the background \
       instead of discarding their copies (the paper's implementation)."
    [
      ("discard", fun j -> { j with mode = Discard });
      ("recompress", fun j -> { j with mode = Recompress });
    ]
    (fun j -> named mode_to_string j.mode)

let budget =
  row "budget" ~docv:"BYTES"
    ~doc:"Maximum decompressed-area bytes; retention evicts to stay under it."
    (Int { min = 1 })
    (fun j -> j.budget)
    (fun b j -> { j with budget = Some b })

let retention =
  let weight = default_weight and fraction = default_fraction in
  choice "retention" ~what:"retention policy" ~docv:"POLICY"
    ~doc:
      "Retention policy for decompressed copies: kedge (the paper's \
       k-edge/LRU scheme), loop-aware (k scaled by loop nesting depth), \
       clock (second-chance, O(1) state) or pin-hot (profile-hot blocks are \
       never discarded)."
    [
      ("kedge", fun j -> { j with retention = Kedge });
      ("loop-aware", fun j -> { j with retention = Loop_aware { weight } });
      ("clock", fun j -> { j with retention = Clock });
      ("pin-hot", fun j -> { j with retention = Pin_hot { fraction } });
    ]
    (fun j -> named retention_to_string j.retention)

let weight =
  row "weight" ~docv:"N"
    ~doc:
      (Printf.sprintf
         "Loop-aware retention: k is scaled by 1 + weight x loop depth (%d \
          when not given)."
         default_weight)
    (Int { min = 1 })
    (fun j ->
      match j.retention with
      | Loop_aware { weight } -> Some weight
      | Kedge | Clock | Pin_hot _ -> None)
    (fun weight j ->
      match j.retention with
      | Loop_aware _ -> { j with retention = Loop_aware { weight } }
      | Kedge | Clock | Pin_hot _ -> j)

let fraction =
  row "fraction" ~docv:"FRACTION"
    ~doc:
      (Printf.sprintf
         "Pin-hot retention: pin the hottest blocks covering this fraction of \
          visits (%g when not given)."
         default_fraction)
    Fraction
    (fun j ->
      match j.retention with
      | Pin_hot { fraction } -> Some fraction
      | Kedge | Loop_aware _ | Clock -> None)
    (fun fraction j ->
      match j.retention with
      | Pin_hot _ -> { j with retention = Pin_hot { fraction } }
      | Kedge | Loop_aware _ | Clock -> j)

let profile =
  let known () = Sim.Cost.profile_names in
  row "profile" ~cli:(Opt "device-profile") ~docv:"PROFILE"
    ~doc:
      "Device profile naming the cost coefficients (cycles and energy) \
       every charge is priced with."
    (Name { what = "device profile"; known })
    (fun j -> Some j.profile)
    (fun profile j -> { j with profile })

let line_size =
  row "line_size" ~cli:(Opt "line-size") ~docv:"BYTES"
    ~doc:
      (Printf.sprintf
         "Compress and retain the image per cache line of this many bytes \
          instead of per basic block (the compressed-I-cache scenario); the \
          bdi-* and cpack-* codecs are line codecs at sizes %s."
         (String.concat ", "
            (List.map string_of_int Compress.Linecodec.line_sizes)))
    (Int { min = 4 })
    (fun j -> j.line_size)
    (fun l j -> { j with line_size = Some l })

let rows =
  [
    Row codec;
    Row k;
    Row strategy;
    Row lookahead;
    Row predictor;
    Row mode;
    Row budget;
    Row retention;
    Row weight;
    Row fraction;
    Row profile;
    Row line_size;
  ]

let sweep_rows = List.filter (fun (Row s) -> s.field <> k.field) rows
let base ~scenario = Job.make ~scenario ~k:8 ()

let validate : type a. a t -> a -> (a, string) result =
 fun s v ->
  match s.kind with
  | Int { min } ->
    if v >= min then Ok v
    else Error (Printf.sprintf "must be >= %d (got %d)" min v)
  | Fraction ->
    if v > 0.0 && v <= 1.0 then Ok v
    else Error (Printf.sprintf "must be in (0, 1] (got %g)" v)
  | Name { what; known } ->
    let known = known () in
    if List.mem v known then Ok v
    else
      Error
        (Printf.sprintf "unknown %s %S (known: %s)" what v
           (String.concat ", " known))

let parse : type a. a t -> string -> (a, string) result =
 fun s str ->
  let number what of_string =
    match of_string str with
    | Some v -> validate s v
    | None -> Error (Printf.sprintf "expected %s, got %S" what str)
  in
  match s.kind with
  | Int _ -> number "an integer" int_of_string_opt
  | Fraction -> number "a number" float_of_string_opt
  | Name _ -> validate s str

let to_string : type a. a t -> a -> string =
 fun s v ->
  match s.kind with
  | Int _ -> string_of_int v
  | Fraction -> Printf.sprintf "%g" v
  | Name _ -> v

let choices (s : string t) = match s.kind with Name { known; _ } -> known ()

let doc : type a. a t -> string =
 fun s ->
  match (s.kind, s.cli) with
  | Name _, Opt _ ->
    Printf.sprintf "%s One of: %s." s.doc (String.concat ", " (choices s))
  | _ -> s.doc
