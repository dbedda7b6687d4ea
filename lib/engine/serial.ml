open Psme_support
open Psme_obs
open Psme_rete

(* The LIFO task stack, kept as three parallel vectors (task, id,
   parent) so a push or pop allocates nothing. Ids are assigned at
   spawn, so a parent's id is always smaller than its children's (the
   critical-path analyzer's invariant); tracing off costs one branch
   per task. *)
type stack = {
  tasks : Task.t Vec.t;
  ids : int Vec.t;
  parents : int Vec.t;
  mutable next_id : int;
}

let stack () =
  { tasks = Vec.create (); ids = Vec.create (); parents = Vec.create (); next_id = 0 }

let push st ~parent task =
  Vec.push st.tasks task;
  Vec.push st.ids st.next_id;
  Vec.push st.parents parent;
  st.next_id <- st.next_id + 1

(* Seed wme changes straight onto the stack; returns the constant-test
   activations performed. *)
let rec seed_changes net st ~parent acts = function
  | [] -> acts
  | (flag, w) :: rest ->
    let a = Runtime.iter_seeds net flag w (push st ~parent) in
    seed_changes net st ~parent (acts + a) rest

let rec added = function
  | [] -> 0
  | (Task.Add, _) :: rest -> 1 + added rest
  | (Task.Delete, _) :: rest -> added rest

(* Fire the instantiations a P-node task added; their wme changes are
   seeded as the task's children. Returns [acts] plus the constant-test
   activations performed. *)
let rec fire_added net st ~parent fire acts = function
  | [] -> acts
  | (Task.Add, inst) :: rest ->
    let acts = seed_changes net st ~parent acts (fire inst) in
    fire_added net st ~parent fire acts rest
  | (Task.Delete, _) :: rest -> fire_added net st ~parent fire acts rest

(* Run the stack to quiescence. With [on_inst] (asynchronous
   elaboration), every instantiation a P-node task adds fires at once
   and its wme changes are seeded as that task's children. The
   accumulators are local refs that no closure captures, so the loop
   keeps them unboxed. *)
let drain ~cost ?tracer ?on_inst net st =
  let t0 = Clock.now_ns () in
  let tasks = ref 0 in
  let serial_us = ref 0. in
  let scanned = ref 0 in
  let emitted = ref 0 in
  let alpha = ref 0 in
  let o = Runtime.outcome () in
  while not (Vec.is_empty st.tasks) do
    let task = Vec.pop_exn st.tasks in
    let id = Vec.pop_exn st.ids in
    let parent = Vec.pop_exn st.parents in
    let node = Task.node task in
    let n = Network.node_opt net node in
    (match tracer with
    | Some tr ->
      Trace.emit tr Trace.Task_start ~t_us:!serial_us ~proc:0 ~node ~task:id ~parent ()
    | None -> ());
    Runtime.exec net n task o;
    incr tasks;
    let c = Cost.task_cost cost n o in
    Telemetry.record_task_us Telemetry.global c;
    let kids = o.Runtime.children in
    let nkids = Array.length kids in
    (match tracer with
    | Some tr ->
      Trace.emit tr Trace.Task_end ~t_us:(!serial_us +. c) ~proc:0 ~node ~task:id
        ~parent ~dur_us:c ~scanned:o.Runtime.scanned ~emitted:nkids ();
      Trace_emit.mem_accesses tr ~t_us:(!serial_us +. c) ~proc:0 ~task:id
        (Runtime.accesses o)
    | None -> ());
    serial_us := !serial_us +. c;
    scanned := !scanned + o.Runtime.scanned;
    emitted := !emitted + nkids;
    for i = 0 to nkids - 1 do
      push st ~parent:id kids.(i)
    done;
    match on_inst with
    | None -> ()
    | Some fire ->
      for _ = 1 to added o.Runtime.insts do
        serial_us := !serial_us +. cost.Cost.fire_us
      done;
      alpha := fire_added net st ~parent:id fire !alpha o.Runtime.insts
  done;
  {
    Cycle.empty with
    tasks = !tasks;
    alpha_activations = !alpha;
    serial_us = !serial_us;
    makespan_us = !serial_us;
    scanned = !scanned;
    emitted = !emitted;
    wall_ns = Clock.now_ns () - t0;
  }

let run_tasks ?(cost = Cost.default) ?tracer net seed =
  let st = stack () in
  List.iter (push st ~parent:(-1)) seed;
  drain ~cost ?tracer net st

(* The cycle's constant-test pass is charged after the task stream, to
   both the serial and the makespan time. *)
let with_alpha cost alpha stats =
  let alpha_us = cost.Cost.alpha_act_us *. float_of_int alpha in
  {
    stats with
    Cycle.alpha_activations = alpha;
    serial_us = stats.Cycle.serial_us +. alpha_us;
    makespan_us = stats.Cycle.makespan_us +. alpha_us;
  }

let run_changes ?(cost = Cost.default) ?tracer net changes =
  let st = stack () in
  let alpha = seed_changes net st ~parent:(-1) 0 changes in
  with_alpha cost alpha (drain ~cost ?tracer net st)

let run_changes_async ?(cost = Cost.default) ?tracer net ~on_inst changes =
  let st = stack () in
  let alpha = seed_changes net st ~parent:(-1) 0 changes in
  let stats = drain ~cost ?tracer ~on_inst net st in
  with_alpha cost (alpha + stats.Cycle.alpha_activations) stats
