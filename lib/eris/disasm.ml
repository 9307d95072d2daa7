let instruction w =
  match Encoding.decode w with
  | Ok i -> Types.to_string i
  | Error _ -> Printf.sprintf ".word 0x%08x" w

let image ?(base = 0) b =
  let n = Bytes.length b in
  let words = n / 4 in
  let rec loop acc i =
    if i = words then
      if n mod 4 = 0 then List.rev acc
      else
        let rest =
          List.init (n - (words * 4)) (fun j ->
              Printf.sprintf "0x%02x" (Char.code (Bytes.get b ((words * 4) + j))))
        in
        List.rev ((base + (words * 4), ".byte " ^ String.concat ", " rest) :: acc)
    else
      let w = Encoding.read_word b (i * 4) in
      loop ((base + (i * 4), instruction w) :: acc) (i + 1)
  in
  loop [] 0
