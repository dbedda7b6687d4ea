(* soarbench: the repository benchmark.

   Runs one workload as full [Agent.run]s through the public entry
   points, checks every run's end state and its learned chunks against
   a reference run, and
   prints its metrics. With [--trace 0] they are the end-to-end metrics
   (wall clock, allocation, heap). With [--trace 1] untraced and traced
   passes alternate, and the per-layer metrics come from the benchmark's
   own timers around the public calls it makes plus the counters the
   layers already export ([Engine.history], [Telemetry.snapshot_kv],
   [Gc.quick_stat]). soarbench/README.md defines every metric.

     main.exe --workload cypress-learn --seed 1 --seconds 30 --trace 0

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   Human-readable lines (metric, value, unit, sample count) precede it;
   per-run cycle, decision and allocation counts go to standard error. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine
open Psme_soar
open Psme_workloads
module Tm = Psme_obs.Telemetry

let now () = Unix.gettimeofday ()

(* --- workloads ----------------------------------------------------------- *)

(* One input of a workload: everything needed to build a fresh agent.
   Agents use [Agent.default_config]: serial engine, learning on (io-stream
   turns learning off itself). *)
type instance = {
  label : string;
  make : unit -> Agent.t;  (** the timed set-up: [Workload.make] or equivalent *)
  sources : Schema.t -> Production.t list;  (** the production text, parsed *)
  goal : Agent.t -> bool;  (** the run reached its task's correct end state *)
}

type workload = {
  wname : string;
  instances : instance array;  (** one pass = one run of each, in order *)
}

let cypress_sources schema =
  Parser.productions schema Cypress.source
  @ Parser.productions schema Cypress.generated_rules
  @ Defaults.productions schema

let puzzle_sources schema =
  Parser.productions schema Eight_puzzle.source
  @ Parser.productions schema Eight_puzzle.generated_rules
  @ Defaults.productions schema

let cypress_instance =
  let sorted = List.sort compare in
  {
    label = "cypress";
    make = (fun () -> Cypress.workload.Workload.make ());
    sources = cypress_sources;
    goal = (fun agent -> sorted (Cypress.derivation agent) = sorted Cypress.preferred);
  }

let puzzle_instance ~seed ~moves =
  let instance = Eight_puzzle.scrambled ~seed ~moves in
  {
    label = Printf.sprintf "scramble-%d-%d" seed moves;
    make = (fun () -> Eight_puzzle.make_agent ~instance ());
    sources = puzzle_sources;
    goal = Eight_puzzle.solved;
  }

(* The io-stream input the benchmark feeds through [Agent.set_input]:
   [Io_stream]'s readings (uniform on 0..99, [rate] per channel per
   tick), drawn stratified so that each (tick, channel) gets one reading
   from each of [rate] equal slices of the range. The marginal
   distribution, and so the expected alert counts, are [Io_stream]'s own;
   the per-tick load varies far less from seed to seed, because
   correlation and storm alerts multiply per-tick counts.
   [readings.(tick).(k)] holds channel [k]'s values at that tick. *)
let stratified_readings (p : Io_stream.params) ~seed =
  let rng = Rng.create seed in
  Array.init p.Io_stream.ticks (fun _ ->
      Array.init p.Io_stream.channels (fun _ ->
          Array.init p.Io_stream.rate (fun j ->
              let lo = j * 100 / p.Io_stream.rate and hi = (j + 1) * 100 / p.Io_stream.rate in
              lo + Rng.int rng (hi - lo))))

(* The alerts [Io_stream.source]'s productions must raise on [readings],
   one per instantiation: high, low and spike per reading (the
   per-channel thresholds are those of [Io_stream.source]), correlated
   per pair of readings above 75 on adjacent channels in one tick, and
   storm per (spike, correlated) pair in one tick. *)
let expected_alerts readings =
  let count pred vs = Array.fold_left (fun n v -> if pred v then n + 1 else n) 0 vs in
  Array.fold_left
    (fun total chans ->
      let single =
        Array.mapi
          (fun k vs ->
            let high = 60 + (5 * (k mod 5)) and low = 15 + (3 * (k mod 4)) in
            count (fun v -> v > high) vs + count (fun v -> v < low) vs)
          chans
      in
      let spikes = Array.fold_left (fun n vs -> n + count (fun v -> v > 93) vs) 0 chans in
      let hot = Array.map (count (fun v -> v > 75)) chans in
      let correlated = ref 0 in
      for k = 0 to Array.length chans - 2 do
        correlated := !correlated + (hot.(k) * hot.(k + 1))
      done;
      total + Array.fold_left ( + ) 0 single + spikes + !correlated + (spikes * !correlated))
    0 readings

let io_instance ~seed =
  let params = { Io_stream.default_params with Io_stream.seed } in
  let readings = stratified_readings params ~seed in
  let expected = expected_alerts readings in
  let channel k = Value.sym (Printf.sprintf "ch-%d" (k + 1)) in
  let input tick =
    List.concat
      (List.concat
         (List.mapi
            (fun k vs ->
              List.map
                (fun v ->
                  let id = Sym.fresh "rd" in
                  [
                    ("reading", id, "channel", channel k);
                    ("reading", id, "value", Value.Int v);
                    ("reading", id, "tick", Value.Int tick);
                  ])
                (Array.to_list vs))
            (Array.to_list readings.(tick))))
  in
  let make () =
    let agent = Io_stream.make_agent ~params () in
    Agent.set_input agent input;
    agent
  in
  {
    label = Printf.sprintf "io-%d" seed;
    make;
    sources = (fun schema -> Parser.productions schema (Io_stream.source params));
    goal = (fun agent -> Io_stream.alerts agent = expected);
  }

(* Suite sizes: enough instances per pass that a pass's work barely
   depends on which instances the seed drew. *)
let puzzle_suite = 16
let puzzle_moves = 6
let io_suite = 4

let workload_names = [ "cypress-learn"; "eight-puzzle-learn"; "io-stream" ]

let workload ~name ~seed =
  let draw n = let rng = Rng.create seed in Array.init n (fun _ -> Rng.int rng 1_000_000) in
  let instances =
    match name with
    | "cypress-learn" -> [| cypress_instance |]
    | "eight-puzzle-learn" ->
      Array.map (fun s -> puzzle_instance ~seed:s ~moves:puzzle_moves) (draw puzzle_suite)
    | "io-stream" -> Array.map (fun s -> io_instance ~seed:s) (draw io_suite)
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { wname = name; instances }

(* --- output checks ------------------------------------------------------ *)

(* What a run must reproduce: its task's end state, and the chunk set of
   the serial reference run of the same instance. *)
type outcome = { chunk_set : string list; goal_ok : bool }

let outcome inst agent (summary : Agent.run_summary) =
  let schema = Agent.schema agent in
  {
    chunk_set =
      List.sort compare
        (List.map (fun ci -> Chunker.canonical_form schema ci.Agent.ci_prod) summary.Agent.chunks);
    goal_ok = inst.goal agent;
  }

let agrees ~reference o = o.goal_ok && o.chunk_set = reference.chunk_set

(* --- small statistics ---------------------------------------------------- *)

module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

let pct = Stats.percentile
let median xs = pct xs 50.
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* --- one measured run ----------------------------------------------------- *)

(* The benchmark's own span record: one per public call it makes. *)
type span = {
  sname : string;
  ts : float;
  dur : float;
  sid : int;
  parent : int;
  args : (string * string) list;
}

type tracer = { mutable spans : span list; mutable next : int }

let tracer = { spans = []; next = 1 }

let fresh_id () =
  let sid = tracer.next in
  tracer.next <- sid + 1;
  sid

(* [sid] names a span whose id was taken before it ended, so that spans
   recorded while it was open could name it as their parent. *)
let record ?(sid = fresh_id ()) ?(parent = 0) ?(args = []) sname ts dur =
  tracer.spans <- { sname; ts; dur; sid; parent; args } :: tracer.spans;
  sid

type run = {
  agent : Agent.t;
  summary : Agent.run_summary;
  wall : float;  (** [Agent.run] seconds *)
  words : float;  (** whole-program minor words during the run *)
  minor_gcs : int;
  decision_lat : float array;  (** seconds between monitor callbacks *)
  tm_before : (string * float) list;
  tm_after : (string * float) list;
}

(* [Gc.quick_stat] covers every domain only once each has synced its
   counters at a minor collection (joined domains fold theirs in when
   they exit), so the window is bracketed by forced minor collections
   outside the timed interval. A traced run records each decision span
   from the monitor callback, inside the timed interval, under the
   [Agent.run] span's id. *)
let measure_run ~traced agent =
  let lat = Buf.create () in
  let last = ref 0. in
  let run_id = fresh_id () in
  Agent.set_monitor agent (fun decision ->
      let t = now () in
      let d = t -. !last in
      Buf.add lat d;
      if traced then
        ignore
          (record ~parent:run_id ~args:[ ("decision", string_of_int decision) ] "decision" !last d);
      last := t);
  let tm_before = if traced then Tm.snapshot_kv Tm.global else [] in
  Gc.minor ();
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  last := t0;
  let summary = Agent.run agent in
  let t1 = now () in
  let q1 = Gc.quick_stat () in
  Gc.minor ();
  let q2 = Gc.quick_stat () in
  let tm_after = if traced then Tm.snapshot_kv Tm.global else [] in
  if traced then ignore (record ~sid:run_id "Agent.run" t0 (t1 -. t0));
  {
    agent;
    summary;
    wall = t1 -. t0;
    words = q2.Gc.minor_words -. q0.Gc.minor_words;
    minor_gcs = q1.Gc.minor_collections - q0.Gc.minor_collections;
    decision_lat = Buf.to_array lat;
    tm_before;
    tm_after;
  }

(* --- the measured loop ----------------------------------------------------- *)

(* One pass runs every instance of the suite once, so all passes do the
   same work. *)
type pass = {
  p_cycles : int;
  p_wall : float;  (** [Agent.run] seconds *)
  p_latency : float array;  (** decision latencies, seconds *)
  p_setup : float array;  (** set-up seconds, one per instance *)
}

type loop = {
  mutable attempted : int;
  mutable failed : int;
  mutable passes : pass list;  (** newest first *)
  mutable cycles : int;
  mutable words : float;
  mutable top_heap_words : int;  (** the major heap's peak after the first pass *)
}

let new_loop () =
  { attempted = 0; failed = 0; passes = []; cycles = 0; words = 0.; top_heap_words = 0 }

let make_agent ~traced inst =
  let t0 = now () in
  let agent = inst.make () in
  let dt = now () -. t0 in
  if traced then ignore (record ~args:[ ("instance", inst.label) ] "Workload.make" t0 dt);
  (agent, dt)

(* Reference outcome of every instance: one run before the measured
   passes, which is also the warm-up. *)
let references w =
  Array.map
    (fun inst ->
      let agent, _ = make_agent ~traced:false inst in
      let summary = Agent.run agent in
      let o = outcome inst agent summary in
      if not o.goal_ok then
        Printf.eprintf "reference run of %s did not reach its goal\n%!" inst.label;
      o)
    w.instances

(* One pass over the suite. [after_run] sees each traced run while its
   agent is still live. *)
let run_pass loop w refs ~traced ~after_run =
  let cycles = ref 0 and wall = ref 0. and lat = ref [] in
  let setup =
    Array.mapi
      (fun i inst ->
        let agent, setup = make_agent ~traced inst in
        let r = measure_run ~traced agent in
        let ok = agrees ~reference:refs.(i) (outcome inst agent r.summary) in
        loop.attempted <- loop.attempted + 1;
        if not ok then loop.failed <- loop.failed + 1;
        let s = r.summary in
        Printf.eprintf
          "%s%s pass %d %s: %d cycles %d decisions %d chunks %.0f words %.1f ms %.1f cycles/s%s\n%!"
          w.wname
          (if traced then " traced" else "")
          (List.length loop.passes) inst.label s.Agent.elab_cycles s.Agent.decisions
          (List.length s.Agent.chunks) r.words (1e3 *. r.wall)
          (float s.Agent.elab_cycles /. r.wall)
          (if ok then "" else " OUTPUT MISMATCH");
        cycles := !cycles + s.Agent.elab_cycles;
        wall := !wall +. r.wall;
        lat := r.decision_lat :: !lat;
        loop.cycles <- loop.cycles + s.Agent.elab_cycles;
        loop.words <- loop.words +. r.words;
        if traced then after_run inst r;
        setup)
      w.instances
  in
  let p = { p_cycles = !cycles; p_wall = !wall; p_latency = Array.concat !lat; p_setup = setup } in
  loop.passes <- p :: loop.passes;
  (* a fixed amount of work, so a serial workload's peak repeats; later
     passes would let it track how many passes the machine's speed
     allowed *)
  if loop.top_heap_words = 0 then loop.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words

(* Whole passes until [seconds] have elapsed. *)
let until ~seconds pass =
  let start = now () in
  pass ();
  while now () -. start < seconds do
    pass ()
  done

(* The slowest quarter of the passes (at least three). On a shared host
   the machine's speed drifts between a common slow state and bursts of
   a faster one; every run sees the slow state, so its passes give the
   figures that repeat from run to run. All passes did the same work. *)
let steady loop =
  let rate p = float p.p_cycles /. p.p_wall in
  let sorted = List.sort (fun a b -> compare (rate a) (rate b)) loop.passes in
  let n = List.length sorted in
  List.filteri (fun i _ -> i < min n (max 3 ((n + 3) / 4))) sorted

(* --- metrics -------------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string; samples : int }

let m ?(samples = 1) mname unit_ value = { mname; value; unit_; samples }

(* A metric with nothing to measure on this workload (no chunks were
   learned, say). The result must still name every metric, so it reads 0
   with no samples; the human-readable line says so. *)
let absent mname unit_ = { mname; value = 0.; unit_; samples = 0 }

(* Percentile [p] of [xs] scaled by [scale], or [absent] if [xs] is empty. *)
let dist ~scale mname unit_ xs p =
  if Array.length xs = 0 then absent mname unit_
  else m ~samples:(Array.length xs) mname unit_ (scale *. pct xs p)

let end_to_end loop =
  let ps = steady loop in
  let lat = Array.concat (List.map (fun p -> p.p_latency) ps) in
  let setup = Array.concat (List.map (fun p -> p.p_setup) ps) in
  let cycles = List.fold_left (fun acc p -> acc + p.p_cycles) 0 ps in
  let nlat = Array.length lat in
  Printf.printf "steady passes: %d of %d (the slowest quarter)\n" (List.length ps)
    (List.length loop.passes);
  [
    m ~samples:(List.length ps) "elab_cycles_per_s" "1/s"
      (float cycles /. sum (List.map (fun p -> p.p_wall) ps));
    m ~samples:nlat "decision_ms_p50" "ms" (1e3 *. pct lat 50.);
    m ~samples:nlat "decision_ms_p90" "ms" (1e3 *. pct lat 90.);
    m ~samples:(Array.length setup) "setup_s" "s" (median setup);
    m ~samples:loop.attempted "alloc_words_per_cycle" "words/cycle"
      (loop.words /. float loop.cycles);
    m "top_heap_mb" "MB" (float (loop.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

(* Change of one [Telemetry.snapshot_kv] counter. *)
let kv_delta ~before ~after key =
  let get l = try List.assoc key l with Not_found -> 0. in
  get after -. get before

(* Parse and compile the instance's production text into a fresh
   network, as [Workload.make] does, timing each layer separately. *)
let front_end_layers inst ~repeats =
  let parse = Buf.create () and build = Buf.create () and beta = ref 0 in
  for _ = 1 to repeats do
    let schema = Schema.create () in
    Agent.prepare_schema schema;
    let t0 = now () in
    let prods = inst.sources schema in
    let t1 = now () in
    ignore (record "Parser.productions" t0 (t1 -. t0));
    let net = Network.create schema in
    let t2 = now () in
    ignore (Build.add_all net prods);
    let t3 = now () in
    ignore (record "Build.add_all" t2 (t3 -. t2));
    Buf.add parse (t1 -. t0);
    Buf.add build (t3 -. t2);
    beta := Network.beta_node_count net
  done;
  (median (Buf.to_array parse), median (Buf.to_array build), !beta)

type replay = {
  replay_s : float;  (** the cold [Engine.run_changes] *)
  replay_tasks : int;
  replay_scanned : int;
  splice_s : float list;  (** [Build.add_production], one per chunk *)
  update_s : float list;  (** [Update.update_tasks_batch] + [Engine.run_tasks] *)
  update_tasks : int;
  history : Cycle.stats list;
  counters : string -> float;  (** telemetry change over the replay *)
  words_seen : float;
      (** telemetry's match words over whole-program words, cold match only *)
  cs : Conflict_set.t;
}

let par2 = Engine.Parallel_mode { Parallel.processes = 2; queues = Parallel.Multiple_queues }

(* Rebuild the run's starting network (same schema, same base
   productions), match its final working memory cold on [mode], then
   splice each learned chunk and run its §5.2 state update, as the
   agent did mid-run. *)
let replay_run ~mode (r : run) =
  let agent = r.agent in
  let engine = match mode with Engine.Serial_mode -> "serial" | _ -> "parallel" in
  let record name t0 t1 args =
    ignore (record ~args:(("engine", engine) :: args) name t0 (t1 -. t0))
  in
  let learned = Agent.learned_productions agent in
  let is_chunk p = List.exists (fun c -> Sym.equal c.Production.name p.Production.name) learned in
  let base =
    List.filter_map
      (fun pm -> let p = pm.Network.meta_production in if is_chunk p then None else Some p)
      (Network.productions (Agent.network agent))
  in
  let net = Network.create ~config:(Agent.config agent).Agent.net_config (Agent.schema agent) in
  ignore (Build.add_all net base);
  let eng = Engine.create mode net in
  let wm = Agent.wm agent in
  let changes = List.map (fun w -> (Task.Add, w)) (Wm.to_list wm) in
  let before = Tm.snapshot_kv Tm.global in
  Gc.minor ();
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  let st = Engine.run_changes eng changes in
  let t1 = now () in
  Gc.minor ();
  let q1 = Gc.quick_stat () in
  let matched = Tm.snapshot_kv Tm.global in
  record "Engine.run_changes" t0 t1 [ ("wmes", string_of_int (List.length changes)) ];
  let splices = ref [] and updates = ref [] and utasks = ref 0 in
  List.iter
    (fun p ->
      let a0 = now () in
      let res = Build.add_production net p in
      let a1 = now () in
      let tasks = Update.update_tasks_batch net wm [ res ] in
      let a2 = now () in
      let us = Engine.run_tasks eng tasks in
      let a3 = now () in
      let args = [ ("chunk", Sym.name p.Production.name) ] in
      record "Build.add_production" a0 a1 args;
      record "Update.update_tasks_batch" a1 a2 args;
      record "Engine.run_tasks" a2 a3 args;
      splices := (a1 -. a0) :: !splices;
      updates := (a3 -. a1) :: !updates;
      utasks := !utasks + us.Cycle.tasks)
    learned;
  let after = Tm.snapshot_kv Tm.global in
  {
    replay_s = t1 -. t0;
    replay_tasks = st.Cycle.tasks;
    replay_scanned = st.Cycle.scanned;
    splice_s = !splices;
    update_s = !updates;
    update_tasks = !utasks;
    history = Engine.history eng;
    counters = (fun key -> kv_delta ~before ~after ("telemetry." ^ key));
    words_seen =
      ratio
        (kv_delta ~before ~after:matched "telemetry.phase.match.minor_words")
        (q1.Gc.minor_words -. q0.Gc.minor_words);
    cs = net.Network.cs;
  }

(* The real parallel engine must reach the serial engine's conflict set. *)
let same_conflict_set a b =
  Conflict_set.size a = Conflict_set.size b
  && List.for_all (Conflict_set.mem a) (Conflict_set.to_list b)

(* What the traced loop keeps of one run once its agent is dropped. *)
type sample = { values : (string * float) list; cycle_us : float list }

let sample_of_run (r : run) =
  let hist = Engine.history (Agent.engine r.agent) in
  let hsum f = float (List.fold_left (fun acc s -> acc + f s) 0 hist) in
  let s = r.summary in
  let kv key = kv_delta ~before:r.tm_before ~after:r.tm_after ("telemetry." ^ key) in
  {
    values =
      [
        ("wall_ms", 1e3 *. r.wall);
        ("match_ms", hsum (fun c -> c.Cycle.wall_ns) /. 1e6);
        ("tasks", hsum (fun c -> c.Cycle.tasks));
        ("scanned", hsum (fun c -> c.Cycle.scanned));
        ("emitted", hsum (fun c -> c.Cycle.emitted));
        ("act_ms", kv "phase.act.time_us" /. 1e3);
        ("firings", kv "phase.act.sections");
        ("decide_ms", kv "phase.conflict-resolution.time_us" /. 1e3);
        ("chunk_ms", kv "phase.chunk-splice.time_us" /. 1e3);
        ("match_words", kv "phase.match.minor_words");
        ("act_words", kv "phase.act.minor_words");
        ("minor_gcs", float r.minor_gcs);
        ("wm_size", float (Wm.size (Agent.wm r.agent)));
        ("cycles", float s.Agent.elab_cycles);
        ("chunks", float (List.length s.Agent.chunks));
        ("decisions", float s.Agent.decisions);
      ];
    cycle_us = List.map (fun c -> float c.Cycle.wall_ns /. 1e3) hist;
  }

(* Traced pass wall over the untraced pass run just before it, minus 1;
   the median over pairs, since adjacent passes see the same machine. *)
let trace_overhead ~untraced ~traced =
  let r = List.map2 (fun u t -> (t.p_wall /. u.p_wall) -. 1.) untraced.passes traced.passes in
  m ~samples:(List.length r) "obs.trace_overhead" "ratio" (median (Array.of_list r))

let per_layer ~samples ~overhead ~serial ~parallel ~front =
  let mean f l = sum (List.map f l) /. float (max 1 (List.length l)) in
  (* per-run mean *)
  let v key = mean (fun s -> List.assoc key s.values) samples in
  let cycle_us = Array.of_list (List.concat_map (fun s -> s.cycle_us) samples) in
  let match_ms = v "match_ms" and act_ms = v "act_ms" and firings = v "firings" in
  let decide_ms = v "decide_ms" and chunk_ms = v "chunk_ms" and wall_ms = v "wall_ms" in
  let tasks = v "tasks" and scanned = v "scanned" and emitted = v "emitted" in
  let cycles = v "cycles" and learned = v "chunks" > 0. in
  let if_learned x = if learned then x else absent x.mname x.unit_ in
  let parse_s, build_s, beta = front in
  let splices = Array.of_list (List.concat_map (fun rp -> rp.splice_s) serial) in
  let updates = Array.of_list (List.concat_map (fun rp -> rp.update_s) serial) in
  let rmean f = mean f serial in
  let pmean f = mean f parallel in
  let hsum f rp = float (List.fold_left (fun acc s -> acc + f s) 0 rp.history) in
  let steals = pmean (fun rp -> rp.counters "queue.steals") in
  let attempts = pmean (fun rp -> rp.counters "queue.steal_attempts") in
  [
    m "ops5.parse_ms" "ms" (1e3 *. parse_s);
    m "rete.build_ms" "ms" (1e3 *. build_s);
    m "rete.beta_nodes" "count" (float beta);
    dist ~scale:1e6 "rete.chunk_splice_us_p50" "us" splices 50.;
    dist ~scale:1e6 "rete.chunk_splice_us_max" "us" splices 100.;
    dist ~scale:1e6 "rete.update_us_p50" "us" updates 50.;
    if_learned (m "rete.update_tasks" "count" (rmean (fun rp -> float rp.update_tasks)));
    m "rete.replay_ms" "ms" (1e3 *. rmean (fun rp -> rp.replay_s));
    m "rete.replay_tasks" "count" (rmean (fun rp -> float rp.replay_tasks));
    m "rete.replay_scanned" "count" (rmean (fun rp -> float rp.replay_scanned));
    m "engine.match_ms" "ms" match_ms;
    m "engine.match_share" "ratio" (ratio match_ms wall_ms);
    dist ~scale:1. "engine.cycle_us_p50" "us" cycle_us 50.;
    dist ~scale:1. "engine.cycle_us_p99" "us" cycle_us 99.;
    m "engine.tasks" "count" tasks;
    m "engine.scanned" "count" scanned;
    m "engine.emitted" "count" emitted;
    m "engine.emit_per_scan" "ratio" (ratio emitted scanned);
    m "engine.ns_per_task" "ns" (ratio (1e6 *. match_ms) tasks);
    m "parallel.replay_ms" "ms" (1e3 *. pmean (fun rp -> rp.replay_s));
    if_learned (m "parallel.update_ms" "ms" (1e3 *. pmean (fun rp -> sum rp.update_s)));
    m "parallel.episodes" "count" (pmean (fun rp -> float (List.length rp.history)));
    m "parallel.steals" "count" steals;
    m "parallel.steal_attempts" "count" attempts;
    m "parallel.steal_hit_ratio" "ratio" (ratio steals attempts);
    m "parallel.failed_pops" "count" (pmean (hsum (fun s -> s.Cycle.failed_pops)));
    m "parallel.lock_contended" "count" (pmean (fun rp -> rp.counters "lock.contended"));
    m "parallel.lock_spins" "count" (pmean (fun rp -> rp.counters "lock.spins"));
    m "soar.act_ms" "ms" act_ms;
    m "soar.firings" "count" firings;
    m "soar.act_us_per_firing" "us" (ratio (1e3 *. act_ms) firings);
    m "soar.decide_ms" "ms" decide_ms;
    if_learned (m "soar.chunk_ms" "ms" chunk_ms);
    m "soar.unattributed_ms" "ms" (wall_ms -. match_ms -. act_ms -. decide_ms -. chunk_ms);
    m "soar.wm_size" "count" (v "wm_size");
    m "soar.elab_cycles" "count" cycles;
    m "soar.decisions" "count" (v "decisions");
    m "gc.match_words_per_cycle" "words/cycle" (v "match_words" /. cycles);
    m "gc.act_words_per_cycle" "words/cycle" (v "act_words" /. cycles);
    m "gc.minor_collections" "count" (v "minor_gcs");
    m "gc.parallel_words_seen" "ratio" (pmean (fun rp -> rp.words_seen));
    overhead;
  ]

(* The split the workloads were chosen for; printed, not enforced, since
   shares are wall-clock. *)
let layer_split w metrics =
  let find name = List.find (fun x -> x.mname = name) metrics in
  let get name = (find name).value in
  let expect what ok =
    Printf.printf "layer split (%s): %s %s\n" w.wname what (if ok then "ok" else "NOT MET")
  in
  match w.wname with
  | "cypress-learn" -> expect "engine.match_share >= 0.7" (get "engine.match_share" >= 0.7)
  | "io-stream" ->
    expect "engine.match_share <= 0.3" (get "engine.match_share" <= 0.3);
    expect "no chunk splices recorded" ((find "rete.chunk_splice_us_max").samples = 0)
  | _ -> ()

(* --- output --------------------------------------------------------------- *)

module Json = Psme_obs.Json

let write_chrome_trace path =
  let spans = List.rev tracer.spans in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.ts) infinity spans in
  let event s =
    let args = ("id", string_of_int s.sid) :: ("parent", string_of_int s.parent) :: s.args in
    Json.Obj
      [
        ("name", Json.Str s.sname);
        ("cat", Json.Str "soarbench");
        ("ph", Json.Str "X");
        (* whole microseconds, so that [Json] writes every digit *)
        ("ts", Json.Float (Float.round (1e6 *. (s.ts -. t0))));
        ("dur", Json.Float (1e6 *. s.dur));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args));
      ]
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("displayTimeUnit", Json.Str "ms"); ("traceEvents", Json.List (List.map event spans)) ]));
  output_char oc '\n';
  close_out oc

(* The result line. [Json.Float] keeps 6 significant digits; a metric
   value is written with all of its digits instead. *)
let print_result ~correct loop metrics =
  List.iter
    (fun x ->
      if x.samples = 0 then Printf.printf "%-28s %14s %-12s (no samples)\n" x.mname "-" x.unit_
      else Printf.printf "%-28s %14.4f %-12s n=%d\n" x.mname x.value x.unit_ x.samples)
    metrics;
  Printf.printf "%-28s %14.4f %-12s n=%d\n" "error_rate"
    (ratio (float loop.failed) (float loop.attempted))
    "ratio" loop.attempted;
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    loop.attempted loop.failed;
  List.iteri
    (fun i x ->
      if not (Float.is_finite x.value) then failwith (x.mname ^ " is not a finite number");
      if i > 0 then Buffer.add_string b ", ";
      Json.escape_to_buffer b x.mname;
      Printf.bprintf b ": {\"value\": %.17g, \"unit\": " x.value;
      Json.escape_to_buffer b x.unit_;
      Buffer.add_char b '}')
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* --- main ----------------------------------------------------------------- *)

let usage =
  "main.exe --workload NAME --seed N --seconds T --trace 0|1 [--trace-out FILE]\n\
   workloads: " ^ String.concat ", " workload_names

let () =
  let wl = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string wl, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "T measuring time (whole passes)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced (1) metrics");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome-trace JSON of the traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !wl workload_names && (!trace = 0 || !trace = 1)) then begin
    prerr_endline usage;
    exit 2
  end;
  let w = workload ~name:!wl ~seed:!seed in
  let loop = new_loop () in
  let refs = references w in
  let refs_ok = Array.for_all (fun o -> o.goal_ok) refs in
  let skip _ _ = () in
  if !trace = 0 then begin
    until ~seconds:!seconds (fun () -> run_pass loop w refs ~traced:false ~after_run:skip);
    print_result ~correct:(refs_ok && loop.failed = 0) loop (end_to_end loop)
  end
  else begin
    (* untraced and traced passes alternate, so both see the same
       machine; their difference is the tracing overhead *)
    let traced = new_loop () in
    let seen = Hashtbl.create 16 in
    let serial = ref [] and parallel = ref [] and samples = ref [] in
    let front = front_end_layers w.instances.(0) ~repeats:5 in
    let after_run inst r =
      samples := sample_of_run r :: !samples;
      if not (Hashtbl.mem seen inst.label) then begin
        Hashtbl.add seen inst.label ();
        let s = replay_run ~mode:Engine.Serial_mode r and p = replay_run ~mode:par2 r in
        traced.attempted <- traced.attempted + 1;
        if not (same_conflict_set s.cs p.cs) then begin
          traced.failed <- traced.failed + 1;
          Printf.eprintf "%s: parallel replay's conflict set differs from serial\n%!" inst.label
        end;
        serial := s :: !serial;
        parallel := p :: !parallel
      end
    in
    until ~seconds:!seconds (fun () ->
        run_pass loop w refs ~traced:false ~after_run:skip;
        run_pass traced w refs ~traced:true ~after_run);
    if !trace_out <> "" then write_chrome_trace !trace_out;
    let metrics =
      per_layer ~samples:!samples ~overhead:(trace_overhead ~untraced:loop ~traced)
        ~serial:!serial ~parallel:!parallel ~front
    in
    layer_split w metrics;
    traced.attempted <- loop.attempted + traced.attempted;
    traced.failed <- loop.failed + traced.failed;
    print_result ~correct:(refs_ok && traced.failed = 0) traced metrics
  end
