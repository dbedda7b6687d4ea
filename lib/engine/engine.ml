open Psme_obs
open Psme_rete

type mode =
  | Serial_mode
  | Parallel_mode of Parallel.config
  | Sim_mode of Sim.config

type t = {
  net : Network.t;
  mode : mode;
  cost : Cost.params;
  tracer : Trace.t option;
  mutable vclock_us : float;
      (* running virtual time: cycles abut on one global timeline *)
  mutable history_rev : Cycle.stats list;
}

let create ?(cost = Cost.default) ?tracer mode net =
  { net; mode; cost; tracer; vclock_us = 0.; history_rev = [] }

let network t = t.net
let mode t = t.mode
let tracer t = t.tracer
let vclock_us t = t.vclock_us

(* Every completed episode lands in the history, whatever the engine;
   the telemetry cycle histogram gets its wall time. *)
let record t stats =
  t.history_rev <- stats :: t.history_rev;
  Telemetry.record_cycle_ns Telemetry.global stats.Cycle.wall_ns;
  stats

(* Run one episode with cycle bracketing on the tracer: the engines emit
   cycle-local times; the tracer's base places them on the global
   timeline, which then advances by the episode's makespan. *)
let with_cycle t run =
  Memory.reset_cycle_stats t.net.Network.mem;
  (match t.tracer with
  | Some tr ->
    Trace.set_cycle tr (List.length t.history_rev);
    Trace.set_base tr t.vclock_us;
    Trace.emit tr Trace.Cycle_begin ~t_us:0. ()
  | None -> ());
  (* every engine episode is match work; the agent loop brackets its
     other phases (conflict-resolution / act / chunk-splice) itself *)
  let stats = Telemetry.with_phase Telemetry.global Telemetry.Match run in
  (match t.tracer with
  | Some tr ->
    Trace.emit tr Trace.Cycle_end ~t_us:stats.Cycle.makespan_us
      ~dur_us:stats.Cycle.makespan_us ~scanned:stats.Cycle.tasks ();
    t.vclock_us <- t.vclock_us +. stats.Cycle.makespan_us;
    Trace.set_base tr t.vclock_us
  | None -> ());
  record t stats

let run_changes t changes =
  with_cycle t (fun () ->
      match t.mode with
      | Serial_mode -> Serial.run_changes ~cost:t.cost ?tracer:t.tracer t.net changes
      | Parallel_mode cfg ->
        Parallel.run_changes ~cost:t.cost ?tracer:t.tracer cfg t.net changes
      | Sim_mode cfg -> Sim.run_changes ~cost:t.cost ?tracer:t.tracer cfg t.net changes)

let run_tasks t tasks =
  with_cycle t (fun () ->
      match t.mode with
      | Serial_mode -> Serial.run_tasks ~cost:t.cost ?tracer:t.tracer t.net tasks
      | Parallel_mode cfg ->
        Parallel.run_tasks ~cost:t.cost ?tracer:t.tracer cfg t.net tasks
      | Sim_mode cfg -> Sim.run_tasks ~cost:t.cost ?tracer:t.tracer cfg t.net tasks)

let run_changes_async t ~on_inst changes =
  with_cycle t (fun () ->
      match t.mode with
      | Serial_mode ->
        Serial.run_changes_async ~cost:t.cost ?tracer:t.tracer t.net ~on_inst changes
      | Sim_mode cfg ->
        Sim.run_changes_async ~cost:t.cost ?tracer:t.tracer cfg t.net ~on_inst changes
      | Parallel_mode cfg ->
        (* fall back to barrier-synchronized waves so the callback never
           runs concurrently with itself *)
        let total = ref Cycle.empty in
        let pending = ref changes in
        let continue_ = ref true in
        while !continue_ do
          let batch = !pending in
          pending := [];
          let insts_before = Conflict_set.pending t.net.Network.cs in
          if batch = [] && insts_before = [] then continue_ := false
          else begin
            let s = Parallel.run_changes ~cost:t.cost ?tracer:t.tracer cfg t.net batch in
            total := Cycle.add !total s;
            List.iter
              (fun inst ->
                Conflict_set.mark_fired t.net.Network.cs inst;
                pending := !pending @ on_inst inst)
              (Conflict_set.pending t.net.Network.cs)
          end
        done;
        !total)

let history t = List.rev t.history_rev
let reset_history t = t.history_rev <- []
let totals t = List.fold_left Cycle.add Cycle.empty (history t)
