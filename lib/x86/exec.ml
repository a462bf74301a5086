include Ctx

exception Helper_stop of { code : int; arg : int }
exception Fuel_exhausted of { spent : int }

type outcome = Exited of int | Stopped of { code : int; arg : int }

(* the usual exit slots come back as static values, not allocated *)
let exited = function
  | 0 -> Exited 0
  | 1 -> Exited 1
  | 2 -> Exited 2
  | 3 -> Exited 3
  | s -> Exited s

(* The only per-instruction work left at run time: charge a retired
   instruction to its tag and check fuel (both before its effect),
   then run its compiled operation. [Prog.finalize] guarantees every
   index an operation returns is a valid operation or an exit. A
   top-level function, so running a TB allocates no closure. *)
let rec loop t ops charge stats by_tag fuel i spent =
  if i < 0 then exited (-1 - i)
  else
    let k = Char.code (Bytes.unsafe_get charge i) in
    if k = 255 then loop t ops charge stats by_tag fuel ((Array.unsafe_get ops i) t) spent
    else begin
      stats.Stats.host_insns <- stats.Stats.host_insns + 1;
      Array.unsafe_set by_tag k (Array.unsafe_get by_tag k + 1);
      let spent = spent + 1 in
      if spent > fuel then raise (Fuel_exhausted { spent });
      loop t ops charge stats by_tag fuel ((Array.unsafe_get ops i) t) spent
    end

let run t (prog : Prog.t) ~fuel =
  let stats = t.stats in
  try loop t prog.Prog.ops prog.Prog.charge stats stats.Stats.by_tag fuel 0 0
  with Helper_stop { code; arg } -> Stopped { code; arg }
