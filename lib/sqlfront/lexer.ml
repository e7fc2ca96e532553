module Scan = Sqlcore.Scan

exception Error of string * int * int

let number sc =
  let digit_at k =
    match Scan.peek_at sc k with Some c -> Scan.is_digit c | None -> false
  in
  let intpart = Scan.take_while sc Scan.is_digit in
  let frac =
    if Scan.peek sc = Some '.' && digit_at 1 then begin
      Scan.advance sc;
      "." ^ Scan.take_while sc Scan.is_digit
    end
    else ""
  in
  let exponent =
    match Scan.peek sc, Scan.peek2 sc with
    | Some ('e' | 'E'), Some c when Scan.is_digit c ->
        Scan.advance sc;
        "e" ^ Scan.take_while sc Scan.is_digit
    | Some ('e' | 'E'), Some (('+' | '-') as sign) when digit_at 2 ->
        Scan.advance sc;
        Scan.advance sc;
        "e" ^ String.make 1 sign ^ Scan.take_while sc Scan.is_digit
    | _ -> ""
  in
  if frac = "" && exponent = "" then Token.Int (int_of_string intpart)
  else Token.Float (float_of_string (intpart ^ frac ^ exponent))

let rec symbol sc =
  let two a b = Scan.peek sc = Some a && Scan.peek2 sc = Some b in
  let take2 () =
    Scan.advance sc;
    Scan.advance sc
  in
  if two '<' '=' then begin take2 (); "<=" end
  else if two '>' '=' then begin take2 (); ">=" end
  else if two '<' '>' then begin take2 (); "<>" end
  else if two '!' '=' then begin take2 (); "<>" end
  else if two '|' '|' then begin take2 (); "||" end
  else
    match Scan.peek sc with
    | None -> Scan.error sc "unexpected end of input"
    | Some c -> lone_symbol sc c

and lone_symbol sc c =
  match c with
    | ('(' | ')' | ',' | '.' | '*' | '=' | '<' | '>' | '+' | '-' | '/' | '%'
      | ';') ->
        Scan.advance sc;
        String.make 1 c
    | _ -> Scan.error sc (Printf.sprintf "unexpected character %C" c)

let tokenize input =
  let sc = Scan.create input in
  let out = ref [] in
  let emit tok tline tcol = out := { Token.tok; tline; tcol } :: !out in
  (try
     let rec loop () =
       Scan.skip_ws_and_comments sc;
       let tline = Scan.line sc and tcol = Scan.column sc in
       match Scan.peek sc with
       | None -> emit Token.Eof tline tcol
       | Some c when Scan.is_ident_start c ->
           emit (Token.Ident (Scan.take_while sc Scan.is_ident_char)) tline tcol;
           loop ()
       | Some c when Scan.is_digit c ->
           emit (number sc) tline tcol;
           loop ()
       | Some '\'' ->
           emit (Token.Str (Scan.quoted_string sc)) tline tcol;
           loop ()
       | Some _ ->
           emit (Token.Sym (symbol sc)) tline tcol;
           loop ()
     in
     loop ()
   with Scan.Error (msg, l, c) -> raise (Error (msg, l, c)));
  List.rev !out
