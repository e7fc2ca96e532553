let canon = String.lowercase_ascii

(* byte-wise over [Char.lowercase_ascii], which maps exactly what
   [String.lowercase_ascii] maps (A-Z), so no lowercase copies are built *)
let equal a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || Char.lowercase_ascii (String.unsafe_get a i)
       = Char.lowercase_ascii (String.unsafe_get b i)
       && go (i + 1)
  in
  go 0

let compare a b =
  let la = String.length a and lb = String.length b in
  let n = min la lb in
  let rec go i =
    if i = n then Int.compare la lb
    else
      let c =
        Int.compare
          (Char.code (Char.lowercase_ascii (String.unsafe_get a i)))
          (Char.code (Char.lowercase_ascii (String.unsafe_get b i)))
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let mem x l = List.exists (equal x) l

let assoc_opt x l =
  List.find_map (fun (k, v) -> if equal k x then Some v else None) l
