(* Outside-in span recorder. Spans wrap calls into a layer's public
   functions from the benchmark's own code; nothing inside the program is
   instrumented. Each span records its name, start, end, parent and the
   minor words allocated while it was open. Spans stay in memory and are
   written out when the run ends.

   Allocation is read with [Gc.minor_words] on the recording domain only:
   work a worker domain does inside a span is timed but not counted. *)

type t = {
  mutable names : string array;  (* interned span names *)
  name_ids : (string, int) Hashtbl.t;
  mutable n : int;
  mutable name_of : int array;
  mutable parent : int array;  (* -1 for a root *)
  mutable t0 : float array;  (* seconds, monotonic *)
  mutable t1 : float array;
  mutable w0 : float array;  (* minor words at open / close *)
  mutable w1 : float array;
  mutable open_ : int;  (* innermost open span, -1 when none *)
}

let create () =
  {
    names = [||];
    name_ids = Hashtbl.create 16;
    n = 0;
    name_of = Array.make 1024 0;
    parent = Array.make 1024 (-1);
    t0 = Array.make 1024 0.;
    t1 = Array.make 1024 0.;
    w0 = Array.make 1024 0.;
    w1 = Array.make 1024 0.;
    open_ = -1;
  }

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let intern t name =
  match Hashtbl.find_opt t.name_ids name with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      t.names <- Array.append t.names [| name |];
      Hashtbl.replace t.name_ids name id;
      id

let grow t =
  let cap = 2 * Array.length t.parent in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name_of <- ext t.name_of 0;
  t.parent <- ext t.parent (-1);
  t.t0 <- ext t.t0 0.;
  t.t1 <- ext t.t1 0.;
  t.w0 <- ext t.w0 0.;
  t.w1 <- ext t.w1 0.

let enter t name =
  if t.n = Array.length t.parent then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name_of.(i) <- intern t name;
  t.parent.(i) <- t.open_;
  t.open_ <- i;
  t.w0.(i) <- Gc.minor_words ();
  t.t0.(i) <- now ();
  i

let leave t i =
  t.t1.(i) <- now ();
  t.w1.(i) <- Gc.minor_words ();
  t.open_ <- t.parent.(i)

let span t name f =
  let i = enter t name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

(* A span with explicit times, for intervals measured elsewhere. *)
let add t ~parent name ~t0 ~t1 ~words =
  if t.n = Array.length t.parent then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name_of.(i) <- intern t name;
  t.parent.(i) <- parent;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.w0.(i) <- 0.;
  t.w1.(i) <- words;
  i

let count t = t.n
let duration t i = t.t1.(i) -. t.t0.(i)
let words t i = t.w1.(i) -. t.w0.(i)
let name t i = t.names.(t.name_of.(i))

(* One row per span name: calls, self time and self words. Self time is a
   span's duration minus the time its children cover, so the rows of all
   names sum to the total duration of the roots. *)
type row = { r_name : string; r_calls : int; r_self_s : float; r_self_words : float }

let table t =
  let k = Array.length t.names in
  let calls = Array.make k 0 and self_s = Array.make k 0. and self_w = Array.make k 0. in
  for i = 0 to t.n - 1 do
    let id = t.name_of.(i) in
    calls.(id) <- calls.(id) + 1;
    self_s.(id) <- self_s.(id) +. duration t i;
    self_w.(id) <- self_w.(id) +. words t i;
    let p = t.parent.(i) in
    if p >= 0 then begin
      let pid = t.name_of.(p) in
      self_s.(pid) <- self_s.(pid) -. duration t i;
      self_w.(pid) <- self_w.(pid) -. words t i
    end
  done;
  List.init k (fun id ->
      { r_name = t.names.(id); r_calls = calls.(id); r_self_s = self_s.(id); r_self_words = self_w.(id) })

let root_total t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then s := !s +. duration t i
  done;
  !s

let row t name = List.find_opt (fun r -> r.r_name = name) (table t)

let self_s t name = match row t name with Some r -> r.r_self_s | None -> 0.
let self_words t name = match row t name with Some r -> r.r_self_words | None -> 0.
let calls t name = match row t name with Some r -> r.r_calls | None -> 0

(* JSON lines, one span per line: id, name, parent, start, end, words. *)
let write t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"t0\":%.9f,\"t1\":%.9f,\"words\":%.0f}\n"
      i (name t i) t.parent.(i) t.t0.(i) t.t1.(i) (words t i)
  done;
  close_out oc
