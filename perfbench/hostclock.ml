(* Host clock probe.

   A shared host may run the benchmark at more than one clock speed: the
   one this benchmark was built on switches between two, about 1.6x
   apart, every few seconds to minutes, and how much of a run falls in
   the fast state varies from run to run. A wall-clock figure then
   measures that share as much as the program.

   A probe is a fixed loop of integer operations over an 8 KiB array, so
   its duration follows the clock the process is getting. Workloads with
   short timed units take a probe after each unit, outside the unit's
   timing, and scale the unit's wall time by [reference_s] over the
   median of the last three probes. Units of up to a second are
   bracketed by three probes on each side and scaled by the mean of the
   two medians; longer ones are probed every 50 ms by a timer signal. The
   result is the unit's time on a host where the probe takes
   [reference_s]; on a 2-vCPU VM of a 2.0 GHz Xeon it takes about 75 us
   in the fast state and 120 us in the slow one. *)

let reference_s = 1e-4
let words = Array.init 1024 (fun i -> i * 7919)
let rounds = 40

let probe_s () =
  let t0 = Tracer.now () in
  let s = ref 0 in
  for r = 1 to rounds do
    for i = 0 to 1023 do
      s := !s + ((words.(i) lxor (r * i)) land 0xffff)
    done
  done;
  ignore (Sys.opaque_identity !s);
  Tracer.now () -. t0

type t = { last : float array; mutable n : int }

let probe t =
  t.last.(t.n mod 3) <- probe_s ();
  t.n <- t.n + 1

let create () =
  let t = { last = Array.make 3 0.; n = 0 } in
  for _ = 1 to 3 do probe t done;
  t

let median3 a =
  let x = a.(0) and y = a.(1) and z = a.(2) in
  Float.max (Float.min x y) (Float.min (Float.max x y) z)

(* The probe time now: the median of the last three probes. *)
let current t = median3 t.last

(* Multiply a wall time measured just before the latest probe by this. *)
let scale t = reference_s /. current t

let burst t =
  for _ = 1 to 3 do probe t done;
  current t

(* [f ()], its wall time without the probes, and its time at the
   reference clock, from probes taken every [period] seconds inside [f]
   by a timer signal: for units that last seconds, during which the host
   may change speed more than once. The probes come at equal intervals
   of wall time, so the mean of 1 / probe weighs each speed by how long
   the host kept it. *)
let period = 0.05

let sampled t f =
  let inv = ref 0. and n = ref 0 and stolen = ref 0. in
  let handler _ =
    let t0 = Tracer.now () in
    inv := !inv +. (1. /. probe_s ());
    incr n;
    stolen := !stolen +. (Tracer.now () -. t0)
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
  let every = { Unix.it_interval = period; it_value = period } in
  let t0 = Tracer.now () in
  ignore (Unix.setitimer Unix.ITIMER_REAL every);
  let v =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
        Sys.set_signal Sys.sigalrm old)
      f
  in
  let dt = Tracer.now () -. t0 -. !stolen in
  if !n = 0 then begin
    probe t;
    (v, dt, dt *. scale t)
  end
  else (v, dt, dt *. reference_s *. (!inv /. float_of_int !n))

(* [f ()], its wall time, and its time at the reference clock. *)
let bracket t f =
  let before = burst t in
  let t0 = Tracer.now () in
  let v = f () in
  let dt = Tracer.now () -. t0 in
  (v, dt, dt *. reference_s /. ((before +. burst t) /. 2.))
