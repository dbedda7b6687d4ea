open Psme_support

(* Always-on runtime telemetry: per-phase allocation/GC accounting,
   log-scale latency histograms and contention counters, distinct from
   the opt-in tracer/profiler. Everything on the record path writes
   into preallocated structures — no allocation in steady state (the
   test suite asserts this by diffing [Gc.minor_words] across bursts of
   records). Snapshots and exports allocate freely; they run off the
   hot path. *)

(* --- phases ------------------------------------------------------------ *)

type phase =
  | Match
  | Conflict_resolution
  | Act
  | Chunk_splice

let phases = [ Match; Conflict_resolution; Act; Chunk_splice ]

let phase_name = function
  | Match -> "match"
  | Conflict_resolution -> "conflict-resolution"
  | Act -> "act"
  | Chunk_splice -> "chunk-splice"

let phase_index = function
  | Match -> 0
  | Conflict_resolution -> 1
  | Act -> 2
  | Chunk_splice -> 3

let n_phases = 4

(* Per-phase accumulators. Words are stored as ints ([Gc] reports
   integral floats); an all-immediate record keeps phase_end free of
   float boxing. *)
type phase_acc = {
  mutable a_sections : int;
  mutable a_time_ns : int;
  mutable a_minor_words : int;
  mutable a_promoted_words : int;
  mutable a_major_words : int;
  mutable a_minor_collections : int;
  mutable a_major_collections : int;
  mutable a_compactions : int;
  mutable a_max_gc_section_ns : int;
      (* longest section that saw a collection: the pause proxy *)
}

let acc_create () =
  {
    a_sections = 0;
    a_time_ns = 0;
    a_minor_words = 0;
    a_promoted_words = 0;
    a_major_words = 0;
    a_minor_collections = 0;
    a_major_collections = 0;
    a_compactions = 0;
    a_max_gc_section_ns = 0;
  }

(* A phase stack frame: the counter readings at phase_begin plus the
   totals consumed by nested phases, so phase_end can attribute
   {e exclusive} cost (own minus children). *)
type frame = {
  mutable f_phase : int;
  mutable f_t0_ns : int;
  mutable f_minor0 : int;
  mutable f_promoted0 : int;
  mutable f_major0 : int;
  mutable f_minor_col0 : int;
  mutable f_major_col0 : int;
  mutable f_compact0 : int;
  mutable f_child_ns : int;
  mutable f_child_minor : int;
  mutable f_child_promoted : int;
  mutable f_child_major : int;
  mutable f_child_minor_col : int;
  mutable f_child_major_col : int;
  mutable f_child_compact : int;
}

let frame_create () =
  {
    f_phase = 0; f_t0_ns = 0; f_minor0 = 0; f_promoted0 = 0; f_major0 = 0;
    f_minor_col0 = 0; f_major_col0 = 0; f_compact0 = 0;
    f_child_ns = 0; f_child_minor = 0; f_child_promoted = 0; f_child_major = 0;
    f_child_minor_col = 0; f_child_major_col = 0; f_child_compact = 0;
  }

let max_depth = 8

(* Minor words must come from [Gc.minor_words ()] (an unboxed
   [@@noalloc] external reading the live young pointer), NOT from the
   [Gc.quick_stat] record: in native code the stat record's
   [minor_words] field is only synced at minor collections, so a
   section shorter than a collection interval would always read a zero
   delta. quick_stat still supplies promoted/major words and collection
   counts, which by nature only advance at collections.

   The begin/end reads are ordered so that a section's own minor-word
   window contains no measurement allocation at all (the quick_stat
   record and the boxed [gettimeofday] float are allocated outside the
   window). A {e nested} section's measurement calls do land in its
   parent's window, though: two quick_stats and two clock reads per
   child. Calibrate those two constants once and charge them to the
   parent's child-total alongside the child's own words, so exclusive
   attribution measures the phase, not the measurement. *)
let calibrate sample =
  let m = ref Stdlib.max_int in
  for _ = 1 to 8 do
    let d = sample () in
    if d >= 0 && d < !m then m := d
  done;
  if !m = Stdlib.max_int then 0 else !m

let quick_stat_self_words =
  calibrate (fun () ->
      let a = Gc.minor_words () in
      let s = Gc.quick_stat () in
      let b = Gc.minor_words () in
      ignore (Sys.opaque_identity s);
      int_of_float (b -. a))

let clock_self_words =
  calibrate (fun () ->
      let a = Gc.minor_words () in
      let t = Clock.now_ns () in
      let b = Gc.minor_words () in
      ignore (Sys.opaque_identity t);
      int_of_float (b -. a))

(* words a nested section's four measurement calls allocate inside its
   parent's window *)
let child_measure_words = (2 * quick_stat_self_words) + (2 * clock_self_words)

type t = {
  phase_accs : phase_acc array;
  frames : frame array;
  mutable depth : int;
  mutable overflow : int; (* open begins beyond max_depth *)
  mutable dropped_sections : int; (* begins beyond max_depth *)
  (* latency histograms, recorded in nanoseconds *)
  cycle_ns : Loghist.t; (* cycle latency (modeled makespan) *)
  task_ns : Loghist.t; (* per-task execution time *)
  dwell_ns : Loghist.t; (* queue residency: push -> pop *)
  (* contention counters: queue side (Chase-Lev deques / sim queues) *)
  steal_attempts : int Atomic.t;
  steals : int Atomic.t;
  steal_cas_failures : int Atomic.t;
  pop_races : int Atomic.t;
  queue_pushes : int Atomic.t;
  queue_pops : int Atomic.t;
  (* contention counters: memory line locks (§6.1 granule) *)
  lock_acquired : int Atomic.t;
  lock_contended : int Atomic.t;
  lock_spins : int Atomic.t;
  mutable cycles : int;
}

let create () =
  {
    phase_accs = Array.init n_phases (fun _ -> acc_create ());
    frames = Array.init max_depth (fun _ -> frame_create ());
    depth = 0;
    overflow = 0;
    dropped_sections = 0;
    cycle_ns = Loghist.create ();
    task_ns = Loghist.create ();
    dwell_ns = Loghist.create ();
    steal_attempts = Atomic.make 0;
    steals = Atomic.make 0;
    steal_cas_failures = Atomic.make 0;
    pop_races = Atomic.make 0;
    queue_pushes = Atomic.make 0;
    queue_pops = Atomic.make 0;
    lock_acquired = Atomic.make 0;
    lock_contended = Atomic.make 0;
    lock_spins = Atomic.make 0;
    cycles = 0;
  }

let global = create ()

(* --- phase accounting -------------------------------------------------- *)

let phase_begin t phase =
  if t.depth >= max_depth then begin
    t.overflow <- t.overflow + 1;
    t.dropped_sections <- t.dropped_sections + 1
  end
  else begin
    let s = Gc.quick_stat () in
    let f = t.frames.(t.depth) in
    t.depth <- t.depth + 1;
    f.f_phase <- phase_index phase;
    f.f_promoted0 <- int_of_float s.Gc.promoted_words;
    f.f_major0 <- int_of_float s.Gc.major_words;
    f.f_minor_col0 <- s.Gc.minor_collections;
    f.f_major_col0 <- s.Gc.major_collections;
    f.f_compact0 <- s.Gc.compactions;
    f.f_child_ns <- 0;
    f.f_child_minor <- 0;
    f.f_child_promoted <- 0;
    f.f_child_major <- 0;
    f.f_child_minor_col <- 0;
    f.f_child_major_col <- 0;
    f.f_child_compact <- 0;
    (* clock after the stat sampling so the span excludes it; precise
       minor counter last so the allocation window excludes the boxed
       clock read too *)
    f.f_t0_ns <- Clock.now_ns ();
    f.f_minor0 <- int_of_float (Gc.minor_words ())
  end

let phase_end t phase =
  if t.overflow > 0 then
    (* matching end for a dropped begin *)
    t.overflow <- t.overflow - 1
  else if t.depth = 0 then ()
  else begin
    (* mirror of phase_begin's ordering: close the allocation window
       before the clock and stat reads allocate *)
    let minor_now = int_of_float (Gc.minor_words ()) in
    let now = Clock.now_ns () in
    let s = Gc.quick_stat () in
    t.depth <- t.depth - 1;
    let f = t.frames.(t.depth) in
    (* unbalanced begin/end pairs attribute to the frame actually open *)
    ignore (phase_index phase);
    let raw_ns = now - f.f_t0_ns in
    let raw_minor = minor_now - f.f_minor0 in
    let raw_promoted = int_of_float s.Gc.promoted_words - f.f_promoted0 in
    let raw_major = int_of_float s.Gc.major_words - f.f_major0 in
    let raw_minor_col = s.Gc.minor_collections - f.f_minor_col0 in
    let raw_major_col = s.Gc.major_collections - f.f_major_col0 in
    let raw_compact = s.Gc.compactions - f.f_compact0 in
    let pos x = if x < 0 then 0 else x in
    let acc = t.phase_accs.(f.f_phase) in
    acc.a_sections <- acc.a_sections + 1;
    acc.a_time_ns <- acc.a_time_ns + pos (raw_ns - f.f_child_ns);
    acc.a_minor_words <- acc.a_minor_words + pos (raw_minor - f.f_child_minor);
    acc.a_promoted_words <-
      acc.a_promoted_words + pos (raw_promoted - f.f_child_promoted);
    acc.a_major_words <- acc.a_major_words + pos (raw_major - f.f_child_major);
    acc.a_minor_collections <-
      acc.a_minor_collections + pos (raw_minor_col - f.f_child_minor_col);
    acc.a_major_collections <-
      acc.a_major_collections + pos (raw_major_col - f.f_child_major_col);
    acc.a_compactions <- acc.a_compactions + pos (raw_compact - f.f_child_compact);
    if raw_minor_col - f.f_child_minor_col > 0 || raw_major_col - f.f_child_major_col > 0
    then begin
      let own_ns = pos (raw_ns - f.f_child_ns) in
      if own_ns > acc.a_max_gc_section_ns then acc.a_max_gc_section_ns <- own_ns
    end;
    (* charge this section (including the measurement allocations its
       own window excluded) to the enclosing frame's child totals *)
    if t.depth > 0 then begin
      let p = t.frames.(t.depth - 1) in
      p.f_child_ns <- p.f_child_ns + raw_ns;
      p.f_child_minor <- p.f_child_minor + raw_minor + child_measure_words;
      p.f_child_promoted <- p.f_child_promoted + raw_promoted;
      p.f_child_major <- p.f_child_major + raw_major;
      p.f_child_minor_col <- p.f_child_minor_col + raw_minor_col;
      p.f_child_major_col <- p.f_child_major_col + raw_major_col;
      p.f_child_compact <- p.f_child_compact + raw_compact
    end
  end

let with_phase t phase f =
  phase_begin t phase;
  Fun.protect ~finally:(fun () -> phase_end t phase) f

(* Moving the open frame's baseline back by [n] makes its end read
   [n] more words, and nesting then charges them like the frame's own. *)
let add_minor_words t n =
  if t.depth > 0 then begin
    let f = t.frames.(t.depth - 1) in
    f.f_minor0 <- f.f_minor0 - n
  end

(* --- record paths ------------------------------------------------------- *)

let record_cycle_ns t ns =
  t.cycles <- t.cycles + 1;
  Loghist.add t.cycle_ns ns

let record_cycle_us t us = record_cycle_ns t (int_of_float (us *. 1e3))
let record_task_ns t ns = Loghist.add t.task_ns ns
let record_task_us t us = record_task_ns t (int_of_float (us *. 1e3))
let record_dwell_ns t ns = Loghist.add t.dwell_ns ns
let record_dwell_us t us = record_dwell_ns t (int_of_float (us *. 1e3))

let add_steal_attempts t n = ignore (Atomic.fetch_and_add t.steal_attempts n)
let add_steals t n = ignore (Atomic.fetch_and_add t.steals n)
let add_steal_cas_failures t n = ignore (Atomic.fetch_and_add t.steal_cas_failures n)
let add_pop_races t n = ignore (Atomic.fetch_and_add t.pop_races n)
let add_queue_pushes t n = ignore (Atomic.fetch_and_add t.queue_pushes n)
let add_queue_pops t n = ignore (Atomic.fetch_and_add t.queue_pops n)
let incr_lock_acquired t = Atomic.incr t.lock_acquired
let incr_lock_contended t = Atomic.incr t.lock_contended
let add_lock_spins t n = ignore (Atomic.fetch_and_add t.lock_spins n)

let cycle_hist t = t.cycle_ns
let task_hist t = t.task_ns
let dwell_hist t = t.dwell_ns

let reset t =
  Array.iter
    (fun a ->
      a.a_sections <- 0;
      a.a_time_ns <- 0;
      a.a_minor_words <- 0;
      a.a_promoted_words <- 0;
      a.a_major_words <- 0;
      a.a_minor_collections <- 0;
      a.a_major_collections <- 0;
      a.a_compactions <- 0;
      a.a_max_gc_section_ns <- 0)
    t.phase_accs;
  t.depth <- 0;
  t.overflow <- 0;
  t.dropped_sections <- 0;
  Loghist.reset t.cycle_ns;
  Loghist.reset t.task_ns;
  Loghist.reset t.dwell_ns;
  Atomic.set t.steal_attempts 0;
  Atomic.set t.steals 0;
  Atomic.set t.steal_cas_failures 0;
  Atomic.set t.pop_races 0;
  Atomic.set t.queue_pushes 0;
  Atomic.set t.queue_pops 0;
  Atomic.set t.lock_acquired 0;
  Atomic.set t.lock_contended 0;
  Atomic.set t.lock_spins 0;
  t.cycles <- 0

(* --- snapshots ----------------------------------------------------------- *)

(* Flat key/value view, sorted by name. Names carry their unit as a
   suffix (_us, _words, or unsuffixed pure counts). *)
let snapshot_kv t =
  let rows = ref [] in
  let push k v = rows := (k, v) :: !rows in
  let ns_us n = float_of_int n /. 1e3 in
  List.iter
    (fun p ->
      let a = t.phase_accs.(phase_index p) in
      let pre = "telemetry.phase." ^ phase_name p in
      push (pre ^ ".sections") (float_of_int a.a_sections);
      push (pre ^ ".time_us") (ns_us a.a_time_ns);
      push (pre ^ ".minor_words") (float_of_int a.a_minor_words);
      push (pre ^ ".promoted_words") (float_of_int a.a_promoted_words);
      push (pre ^ ".major_words") (float_of_int a.a_major_words);
      push (pre ^ ".minor_collections") (float_of_int a.a_minor_collections);
      push (pre ^ ".major_collections") (float_of_int a.a_major_collections);
      push (pre ^ ".compactions") (float_of_int a.a_compactions);
      push (pre ^ ".max_gc_section_us") (ns_us a.a_max_gc_section_ns))
    phases;
  let hist name h =
    let pre = "telemetry." ^ name in
    push (pre ^ ".count") (float_of_int (Loghist.count h));
    if Loghist.count h > 0 then begin
      push (pre ^ ".mean_us") (Loghist.mean h /. 1e3);
      push (pre ^ ".p50_us") (Loghist.percentile h 50. /. 1e3);
      push (pre ^ ".p90_us") (Loghist.percentile h 90. /. 1e3);
      push (pre ^ ".p99_us") (Loghist.percentile h 99. /. 1e3);
      push (pre ^ ".max_us") (ns_us (Loghist.max h))
    end
  in
  hist "cycle" t.cycle_ns;
  hist "task" t.task_ns;
  hist "dwell" t.dwell_ns;
  push "telemetry.cycles" (float_of_int t.cycles);
  push "telemetry.queue.steal_attempts" (float_of_int (Atomic.get t.steal_attempts));
  push "telemetry.queue.steals" (float_of_int (Atomic.get t.steals));
  push "telemetry.queue.steal_cas_failures"
    (float_of_int (Atomic.get t.steal_cas_failures));
  push "telemetry.queue.pop_races" (float_of_int (Atomic.get t.pop_races));
  push "telemetry.queue.pushes" (float_of_int (Atomic.get t.queue_pushes));
  push "telemetry.queue.pops" (float_of_int (Atomic.get t.queue_pops));
  push "telemetry.lock.acquired" (float_of_int (Atomic.get t.lock_acquired));
  push "telemetry.lock.contended" (float_of_int (Atomic.get t.lock_contended));
  push "telemetry.lock.spins" (float_of_int (Atomic.get t.lock_spins));
  push "telemetry.dropped_sections" (float_of_int t.dropped_sections);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let hist_json h =
  let buckets = ref [] in
  Loghist.iter_nonempty
    (fun ~lower ~upper ~count ->
      buckets :=
        Json.Obj
          [
            ("lo_ns", Json.Int lower); ("hi_ns", Json.Int upper);
            ("count", Json.Int count);
          ]
        :: !buckets)
    h;
  let p q = if Loghist.count h = 0 then Json.Null else Json.Float (Loghist.percentile h q /. 1e3) in
  Json.Obj
    [
      ("count", Json.Int (Loghist.count h));
      ("mean_us", if Loghist.count h = 0 then Json.Null else Json.Float (Loghist.mean h /. 1e3));
      ("p50_us", p 50.);
      ("p90_us", p 90.);
      ("p99_us", p 99.);
      ("max_us", Json.Float (float_of_int (Loghist.max h) /. 1e3));
      ("buckets", Json.List (List.rev !buckets));
    ]

(* Field names below are a stable contract (frozen by an expect-test):
   tools parse `soar_cli telemetry --json` and `soar_cli profile --json`
   with them. *)
let to_json t =
  let phase_obj p =
    let a = t.phase_accs.(phase_index p) in
    ( phase_name p,
      Json.Obj
        [
          ("sections", Json.Int a.a_sections);
          ("time_us", Json.Float (float_of_int a.a_time_ns /. 1e3));
          ("minor_words", Json.Int a.a_minor_words);
          ("promoted_words", Json.Int a.a_promoted_words);
          ("major_words", Json.Int a.a_major_words);
          ("minor_collections", Json.Int a.a_minor_collections);
          ("major_collections", Json.Int a.a_major_collections);
          ("compactions", Json.Int a.a_compactions);
          ("max_gc_section_us", Json.Float (float_of_int a.a_max_gc_section_ns /. 1e3));
        ] )
  in
  Json.Obj
    [
      ("schema", Json.Str "psme-telemetry/1");
      ("cycles", Json.Int t.cycles);
      ("phases", Json.Obj (List.map phase_obj phases));
      ( "hist",
        Json.Obj
          [
            ("cycle_us", hist_json t.cycle_ns);
            ("task_us", hist_json t.task_ns);
            ("dwell_us", hist_json t.dwell_ns);
          ] );
      ( "queue",
        Json.Obj
          [
            ("pushes", Json.Int (Atomic.get t.queue_pushes));
            ("pops", Json.Int (Atomic.get t.queue_pops));
            ("steal_attempts", Json.Int (Atomic.get t.steal_attempts));
            ("steals", Json.Int (Atomic.get t.steals));
            ("steal_cas_failures", Json.Int (Atomic.get t.steal_cas_failures));
            ("pop_races", Json.Int (Atomic.get t.pop_races));
          ] );
      ( "lock",
        Json.Obj
          [
            ("acquired", Json.Int (Atomic.get t.lock_acquired));
            ("contended", Json.Int (Atomic.get t.lock_contended));
            ("spins", Json.Int (Atomic.get t.lock_spins));
          ] );
      ("dropped_sections", Json.Int t.dropped_sections);
    ]

(* --- one-line delta ------------------------------------------------------ *)

let kv_get kv k = Option.value ~default:0. (List.assoc_opt k kv)

(* Rolling watch line: counter deltas between two snapshots plus the
   {e current} latency percentiles (percentile deltas are meaningless).
   Format: one line, fixed field order, human- and grep-friendly. *)
let delta_line ~before ~after =
  let d k = kv_get after k -. kv_get before k in
  let cyc = d "telemetry.cycles" in
  let alloc =
    List.fold_left
      (fun a p -> a +. d ("telemetry.phase." ^ phase_name p ^ ".minor_words"))
      0. phases
  in
  let minor_col =
    List.fold_left
      (fun a p -> a +. d ("telemetry.phase." ^ phase_name p ^ ".minor_collections"))
      0. phases
  in
  let per_cycle x = if cyc > 0. then x /. cyc else 0. in
  Printf.sprintf
    "+%.0fcyc %.0fw/cyc %.0fgc cycle[p50 %.0fus p99 %.0fus max %.0fus] \
     task[p50 %.0fus p99 %.0fus] steals +%.0f/%.0f cas-fail +%.0f lock +%.0f/%.0f \
     spins +%.0f"
    cyc (per_cycle alloc) minor_col
    (kv_get after "telemetry.cycle.p50_us")
    (kv_get after "telemetry.cycle.p99_us")
    (kv_get after "telemetry.cycle.max_us")
    (kv_get after "telemetry.task.p50_us")
    (kv_get after "telemetry.task.p99_us")
    (d "telemetry.queue.steals")
    (d "telemetry.queue.steal_attempts")
    (d "telemetry.queue.steal_cas_failures")
    (d "telemetry.lock.contended")
    (d "telemetry.lock.acquired")
    (d "telemetry.lock.spins")

let pp ppf t =
  List.iter
    (fun (name, v) ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Format.fprintf ppf "%-48s %14.0f@." name v
      else Format.fprintf ppf "%-48s %14.3f@." name v)
    (snapshot_kv t)
