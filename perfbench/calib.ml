(* Machine-speed calibration. A shared 2-vCPU VM (Xeon, 2.1 GHz) runs
   in spells: for seconds to minutes everything, this kernel included,
   runs up to 1.6x slower, with no steal time visible to the guest. The
   kernel uses only the OCaml standard library (string hashing, list and
   array sorts, small allocations, like the program under test), so no
   change to the repository's code can move it (a change to the GC
   settings the process runs under would). Timing it before and after
   each measured pass tells how fast the machine was meanwhile, and the
   pass is scaled to a machine on which one run of the kernel takes
   [reference_ms]. Measured on that VM, five 10 s runs per workload: the
   fastest raw pass gave 138-179 stmts/s on join_ship and 430-584 on
   server_zipf, while the median calibrated pass gave 200-208 and
   740-766. *)

let reference_ms = 10.0

let kernel () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 6000 do
    Hashtbl.replace h (Printf.sprintf "key-%d-abcdefgh" (i * 7919 mod 10007)) (float_of_int i)
  done;
  let l = List.sort compare (List.init 6000 (fun i -> (i * 7919 mod 10007, string_of_int i))) in
  let acc =
    List.fold_left
      (fun acc (x, s) ->
        match Hashtbl.find_opt h (Printf.sprintf "key-%d-abcdefgh" x) with
        | Some v -> acc + int_of_float v + String.length s
        | None -> acc)
      0 l
  in
  let a = Array.init 20000 (fun i -> [| i; i * 3 |]) in
  Array.sort (fun x y -> compare y.(1) x.(1)) a;
  acc + a.(0).(0)

(* one timed run of the kernel, in ms *)
let run_ms () =
  let t0 = Ltrace.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  float_of_int (Ltrace.now_ns () - t0) /. 1e6
