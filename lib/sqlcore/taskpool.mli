(** A fixed-size OCaml 5 domain pool executing opaque jobs on real cores.
    The multi-session server runs the service-disjoint batches of a wave
    on it when configured with more than one domain.

    The pool owns [domains - 1] worker domains parked on a condition
    variable; the caller of {!run_all} is the remaining execution lane, so
    [domains] is the true width of the pool and [domains = 1] runs
    everything sequentially on the calling domain with no spawn at all.

    Jobs are opaque thunks. They must not raise (callers wrap each job to
    capture its result or exception), and they must not submit work to the
    same pool. *)

type t

val shared : domains:int -> t
(** The process-wide pool of the given width (clamped to at least 1),
    created on first use and never shut down, so repeated server creation
    does not accumulate OS threads. *)

val run_all : t -> (unit -> unit) list -> unit
(** Execute every job, distributing them over the workers and the calling
    domain, and return when all have finished. Concurrent [run_all] calls
    on a shared pool are safe: each waits for its own batch only. *)
