(** Atomic values stored in relations.

    SQL three-valued logic is handled at the expression-evaluation level;
    here [Null] is an ordinary bottom element that compares lowest. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val equal : t -> t -> bool
(** Equality as agreement of {!compare}: [Int 1] and [Float 1.0] {e are}
    equal, matching the evaluator's numeric coercion and the order used to
    sort multisets before pairwise comparison. *)

val compare : t -> t -> int
(** Total order used for ORDER BY, MIN/MAX and index lookups. [Null] sorts
    first; ints and floats compare numerically across the two types. The
    cross-type comparison is {e exact} (performed in the integer domain),
    so adjacent ints above 2^53 are not merged by a detour through
    double rounding and the order stays transitive. *)

val sql_key : t -> t
(** The hash key of a value under SQL equality ({!equal}): integral
    floats in [-2{^62}, 2{^62}) become the int they equal ([-0.0] becomes
    [0]); every other value is its own key. *)

module Key_tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!sql_key}ed values and compared with {!equal}:
    look a value up under its [sql_key], and it meets every value
    [equal] to it (IN sets, index lookups). *)

val ty : t -> Ty.t option
(** Type of a non-null value; [None] for [Null]. *)

val is_null : t -> bool

val to_string : t -> string
(** Display form: [NULL], bare numbers, unquoted strings. *)

val to_literal : t -> string
(** SQL literal form: strings quoted with ['] and embedded quotes doubled;
    a finite float in the shortest of [%.15g]/[%.16g]/[%.17g] that reads
    back as the same float, with [.0] appended if that text would read
    as an integer. *)

val of_literal_exn : string -> t
(** Inverse of {!to_literal} for the simple literal forms; raises
    [Invalid_argument] on malformed input. Used by tests. *)

val pp : Format.formatter -> t -> unit

val as_float : t -> float option
(** Numeric view of [Int] and [Float]; [None] otherwise. *)

val as_int : t -> int option
val as_string : t -> string option
val as_bool : t -> bool option

val size_bytes : t -> int
(** Approximate wire size of the value; used by the network simulator to
    charge data-shipping costs. *)
