type strategy =
  | On_demand
  | Pre_all of { lookahead : int }
  | Pre_single of { lookahead : int; predictor : string }

type mode =
  | Discard
  | Recompress

type retention =
  | Kedge
  | Loop_aware of { weight : int }
  | Clock
  | Pin_hot of { fraction : float }

type t = {
  scenario : string;
  codec : string;
  k : int;
  strategy : strategy;
  mode : mode;
  budget : int option;
  retention : retention;
  profile : string;
  line_size : int option;
}

let default_profile = "paper-2005"

let make ?(codec = "code") ?(strategy = On_demand) ?(mode = Discard) ?budget
    ?(retention = Kedge) ?(profile = default_profile) ?line_size ~scenario ~k
    () =
  { scenario; codec; k; strategy; mode; budget; retention; profile; line_size }

(* Bump when the canonical rendering below (or the meaning of any
   field) changes: old cache entries must stop matching.
   v2: device profile joined the spec.
   v3: line_size joined the spec (line-granular residency runs).
   v4: scenario may be a corpus spec (gen:/multi:), canonicalized at
   parse time — the same shape always renders the same key.
   v5: a line-granular job's profile predictor predicts from the line
   trace (it used block-profile probabilities under line ids). *)
let spec_version = 5

let strategy_to_string = function
  | On_demand -> "on-demand"
  | Pre_all { lookahead } -> Printf.sprintf "pre-all:%d" lookahead
  | Pre_single { lookahead; predictor } ->
    Printf.sprintf "pre-single:%d:%s" lookahead predictor

let mode_to_string = function
  | Discard -> "discard"
  | Recompress -> "recompress"

let retention_to_string = function
  | Kedge -> "kedge"
  | Loop_aware { weight } -> Printf.sprintf "loop-aware:%d" weight
  | Clock -> "clock"
  (* %h renders the float exactly (hexadecimal), so equal fractions
     always canonicalize identically. *)
  | Pin_hot { fraction } -> Printf.sprintf "pin-hot:%h" fraction

let canonical t =
  Printf.sprintf
    "ccomp-job \
     %d|scenario=%s|codec=%s|k=%d|strategy=%s|mode=%s|budget=%s|retention=%s|profile=%s|line_size=%s"
    spec_version t.scenario t.codec t.k
    (strategy_to_string t.strategy)
    (mode_to_string t.mode)
    (match t.budget with None -> "none" | Some b -> string_of_int b)
    (retention_to_string t.retention)
    t.profile
    (match t.line_size with None -> "none" | Some l -> string_of_int l)

let key t =
  Printf.sprintf "v%d-%s" spec_version (Digest.to_hex (Digest.string (canonical t)))

let describe t =
  Printf.sprintf "%s codec=%s k=%d %s %s%s retention=%s%s" t.scenario t.codec
    t.k
    (strategy_to_string t.strategy)
    (mode_to_string t.mode)
    (match t.budget with
    | None -> ""
    | Some b -> Printf.sprintf " budget=%dB" b)
    (retention_to_string t.retention)
    ((if t.profile = default_profile then ""
      else Printf.sprintf " profile=%s" t.profile)
    ^
    match t.line_size with
    | None -> ""
    | Some l -> Printf.sprintf " line=%dB" l)

let predictor_of sc = function
  | "first" -> Core.Predictor.First_successor
  | "last-taken" -> Core.Predictor.Last_taken
  | "profile" -> Core.Predictor.By_profile (Core.Scenario.profile sc)
  | other -> invalid_arg (Printf.sprintf "Fleet.Job: unknown predictor %S" other)

let retention_spec ~profile t =
  match t.retention with
  | Kedge -> Residency.Policy.Kedge
  | Loop_aware { weight } -> Residency.Policy.Loop_aware { weight }
  | Clock -> Residency.Policy.Clock
  | Pin_hot { fraction } ->
    Residency.Policy.Pin_hot
      { pinned = Cfg.Profile.hot_blocks (profile ()) ~fraction }

let policy sc t =
  let strategy =
    match t.strategy with
    | On_demand -> Core.Policy.On_demand
    | Pre_all { lookahead } -> Core.Policy.Pre_all { lookahead }
    | Pre_single { lookahead; predictor } ->
      Core.Policy.Pre_single
        { lookahead; predictor = predictor_of sc predictor }
  in
  let mode =
    match t.mode with
    | Discard -> Core.Policy.Discard
    | Recompress -> Core.Policy.Recompress
  in
  let retention =
    retention_spec ~profile:(fun () -> Core.Scenario.profile sc) t
  in
  Core.Policy.make ~mode ~strategy ?budget:t.budget ~retention ~compress_k:t.k
    ()

let execute ?sink ?guard sc t =
  let policy = policy sc t in
  match t.line_size with
  | None -> Core.Scenario.run ~profile:t.profile ?sink ?guard sc policy
  | Some line_size ->
    Core.Lineview.run ~profile:t.profile ?sink ?guard ~line_size sc policy
