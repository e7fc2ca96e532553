type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

(* Null < numbers < strings < bools; ints and floats interleave numerically *)
let class_rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3

(* Int-vs-float comparison must be exact: rounding the int to a double
   first merges adjacent ints above 2^53 and makes the numeric order
   non-transitive (Int (2^53) = Float 2^53. = Int (2^53+1) while the two
   ints differ), which breaks sorting and hash-join keying. Compare in
   the integer domain instead; NaN keeps [Float.compare]'s convention
   (equal to itself, below every number). *)
let compare_int_float a b =
  if Float.is_nan b then 1
  else if b >= 0x1p62 then -1 (* every int is below 2^62 *)
  else if b < -0x1p62 then 1
  else
    let fl = Float.floor b in
    let il = int_of_float fl in
    (* exact: |fl| <= 2^62 and integral *)
    if a < il then -1 else if a > il then 1 else if fl = b then 0 else -1

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int a, Int b -> Stdlib.compare a b
  | Float a, Float b -> Float.compare a b
  | Int a, Float b -> compare_int_float a b
  | Float a, Int b -> -compare_int_float b a
  | Str a, Str b -> String.compare a b
  | Bool a, Bool b -> Bool.compare a b
  | _, _ -> Stdlib.compare (class_rank a) (class_rank b)

(* Equality is [compare] agreement, so Int 1 = Float 1.0: a sort by
   [compare] followed by a pairwise [equal] walk (Relation.equal_unordered)
   can never disagree with the order it sorted by. *)
let equal a b = compare a b = 0

(* Hash keys for SQL equality: [Key_tbl] finds [b] under [sql_key a]
   exactly when [equal a b]. An integral float in [-2^62, 2^62) is keyed
   as the int it equals (so 3 meets 3.0, -0.0 meets 0, and [min_int]
   meets [-2^62.]) and every other float is kept as is: no float outside
   that range equals an int, and ints above 2^53 are never rounded. NaN
   needs no step: [equal] makes every NaN equal to itself and
   [Hashtbl.hash] hashes every NaN alike. *)
let sql_key = function
  | Float f as v ->
      if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then Int (int_of_float f)
      else v
  | v -> v

module Key_tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  (* ints, the usual key, skip the generic C hash: multiply, then fold
     the high bits down, since the table indexes by the low bits *)
  let hash = function
    | Int i ->
        let h = i * 0x2545F4914F6CDD1D in
        h lxor (h lsr 29)
    | v -> Hashtbl.hash v
end)

let ty = function
  | Null -> None
  | Int _ -> Some Ty.Int
  | Float _ -> Some Ty.Float
  | Str _ -> Some Ty.Str
  | Bool _ -> Some Ty.Bool

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> s
  | Bool b -> if b then "TRUE" else "FALSE"

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

(* A float literal must read back as the same float: the shortest of
   %.15g/%.16g/%.17g that round-trips (%.17g always does). Where %g was
   already exact the text is unchanged, since %.15g then prints the same
   digits. A literal never reads back as an Int: one printed without '.'
   or exponent gets ".0". *)
let float_literal f =
  if (Float.is_integer f && Float.abs f < 1e15) || not (Float.is_finite f) then
    float_to_string f
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match exact 15 with
      | Some s -> s
      | None -> (
          match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let to_literal = function
  | Str s -> quote s
  | Float f -> float_literal f
  | (Null | Int _ | Bool _) as v -> to_string v

let of_literal_exn s =
  let n = String.length s in
  if n = 0 then invalid_arg "Value.of_literal_exn: empty"
  else if String.uppercase_ascii s = "NULL" then Null
  else if String.uppercase_ascii s = "TRUE" then Bool true
  else if String.uppercase_ascii s = "FALSE" then Bool false
  else if s.[0] = '\'' then
    if n >= 2 && s.[n - 1] = '\'' then
      let body = String.sub s 1 (n - 2) in
      let buf = Buffer.create (String.length body) in
      let rec loop i =
        if i < String.length body then begin
          if body.[i] = '\'' && i + 1 < String.length body && body.[i + 1] = '\''
          then begin
            Buffer.add_char buf '\'';
            loop (i + 2)
          end
          else begin
            Buffer.add_char buf body.[i];
            loop (i + 1)
          end
        end
      in
      loop 0;
      Str (Buffer.contents buf)
    else invalid_arg "Value.of_literal_exn: unterminated string"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> invalid_arg ("Value.of_literal_exn: " ^ s))

let pp ppf v = Format.pp_print_string ppf (to_string v)

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Str _ | Bool _ -> None

let as_int = function Int i -> Some i | Null | Float _ | Str _ | Bool _ -> None
let as_string = function Str s -> Some s | Null | Int _ | Float _ | Bool _ -> None
let as_bool = function Bool b -> Some b | Null | Int _ | Float _ | Str _ -> None

let size_bytes = function
  | Null -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | Str s -> String.length s
