(* Property-based tests (qcheck): random production sets and random
   working-memory histories must satisfy the matcher's invariants, on
   every engine. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine

(* --- generators -------------------------------------------------------- *)

let colors = [ "red"; "blue"; "green" ]
let names = [ "a"; "b"; "c"; "d" ]

(* A random production over the blocks schema: 1-3 positive CEs with a
   mix of constant, variable and predicate tests, optionally a negated
   CE, RHS is a write. The first CE binds <n> and <s>; later CEs and the
   negation may test them with [<>] or [>], so the joins carry
   non-equality residuals beside (or instead of) the [^on <x>] key.
   Always valid by construction. *)
let gen_production =
  let open QCheck.Gen in
  let gen_const_test =
    oneof
      [
        map (fun c -> ("color", Printf.sprintf "%s" c)) (oneofl colors);
        map (fun n -> ("name", n)) (oneofl names);
        map (fun i -> ("state", string_of_int i)) (int_bound 2);
      ]
  in
  let gen_residual = oneofl [ ""; ""; "^state > <s>"; "^name <> <n>" ] in
  let ce_src ~var i =
    let* consts = list_size (int_bound 1) gen_const_test in
    let const_str =
      String.concat " " (List.map (fun (a, v) -> Printf.sprintf "^%s %s" a v) consts)
    in
    (* bind a variable on name so later CEs can join, in half the CEs *)
    let* with_var = bool in
    let var_str =
      if with_var || i = 0 then Printf.sprintf "^on <%s>" var else ""
    in
    let* residual = if i = 0 then return "^name <n> ^state <s>" else gen_residual in
    return (Printf.sprintf "(block %s %s %s)" const_str var_str residual)
  in
  let* n_ces = int_range 1 3 in
  let* ces = List.init n_ces (fun i -> ce_src ~var:"x" i) |> flatten_l in
  let* neg = bool in
  let* neg_residual = gen_residual in
  let neg_src =
    if neg then Printf.sprintf "-(block ^on <x> ^color green %s)" neg_residual else ""
  in
  let* id = int_bound 10_000_000 in
  return
    (Printf.sprintf "(p rnd-%d %s %s --> (write ok))" id (String.concat " " ces)
       neg_src)

let arb_productions =
  QCheck.make
    ~print:(fun l -> String.concat "\n" l)
    QCheck.Gen.(list_size (int_range 1 4) gen_production)

(* A random history: batches of adds/deletes of block wmes; deletes only
   target wmes from earlier batches. *)
type op =
  | Add_block of string * string * int
  | Del of int  (** index into previously added wmes *)

let gen_history =
  let open QCheck.Gen in
  let gen_op =
    frequency
      [
        ( 4,
          let* n = oneofl names in
          let* c = oneofl colors in
          let* s = int_bound 2 in
          return (Add_block (n, c, s)) );
        (1, map (fun i -> Del i) (int_bound 30));
      ]
  in
  list_size (int_range 2 6) (list_size (int_range 1 8) gen_op)

let arb_history =
  QCheck.make
    ~print:(fun batches ->
      String.concat " | "
        (List.map
           (fun b ->
             String.concat ","
               (List.map
                  (function
                    | Add_block (n, c, s) -> Printf.sprintf "+%s/%s/%d" n c s
                    | Del i -> Printf.sprintf "-#%d" i)
                  b))
           batches))
    gen_history

let blocks_schema () =
  let schema = Schema.create () in
  Schema.declare schema "block" [ "name"; "color"; "on"; "state" ];
  schema

let realize_history schema batches =
  (* turn ops into per-batch change lists with consistent timetags *)
  let tag = ref 0 in
  let added = ref [||] in
  let deleted = Hashtbl.create 16 in
  List.map
    (fun batch ->
      let changes = ref [] in
      List.iter
        (fun op ->
          match op with
          | Add_block (n, c, s) ->
            incr tag;
            let cls = Sym.intern "block" in
            let fields = Array.make (Schema.arity schema cls) Value.nil in
            fields.(0) <- Value.sym n;
            fields.(1) <- Value.sym c;
            fields.(3) <- Value.Int s;
            let w = Wme.make ~cls ~fields ~timetag:!tag in
            added := Array.append !added [| w |];
            changes := (Task.Add, w) :: !changes
          | Del i ->
            let n = Array.length !added in
            if n > 0 then begin
              let idx = i mod n in
              let w = !added.(idx) in
              (* only delete committed, not-yet-deleted wmes, and not
                 ones added in this same batch *)
              if
                (not (Hashtbl.mem deleted w.Wme.timetag))
                && not (List.exists (fun (_, x) -> Wme.equal x w) !changes)
              then begin
                Hashtbl.replace deleted w.Wme.timetag ();
                changes := (Task.Delete, w) :: !changes
              end
            end)
        batch;
      List.rev !changes)
    batches

let build_net schema prods_src =
  let net = Network.create schema in
  List.iter
    (fun src ->
      match Parser.parse_production schema src with
      | p -> ( try ignore (Build.add_production net p) with Invalid_argument _ -> ())
      | exception _ -> ())
    prods_src;
  net

(* --- engine equivalence -------------------------------------------------- *)

let prop_sim_equals_serial =
  QCheck.Test.make ~count:60 ~name:"sim conflict set = serial conflict set"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize_history schema history in
      let net_a = build_net schema prods in
      List.iter (fun b -> ignore (Serial.run_changes net_a b)) batches;
      let net_b = build_net schema prods in
      let cfg = { Sim.procs = 5; queues = Parallel.Multiple_queues; collect_trace = false } in
      List.iter (fun b -> ignore (Sim.run_changes cfg net_b b)) batches;
      Fixtures.cs_fingerprint net_a = Fixtures.cs_fingerprint net_b)

let prop_parallel_equals_serial =
  QCheck.Test.make ~count:15 ~name:"real domains conflict set = serial"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize_history schema history in
      let net_a = build_net schema prods in
      List.iter (fun b -> ignore (Serial.run_changes net_a b)) batches;
      let net_b = build_net schema prods in
      let cfg = { Parallel.processes = 3; queues = Parallel.Multiple_queues } in
      List.iter (fun b -> ignore (Parallel.run_changes cfg net_b b)) batches;
      Fixtures.cs_fingerprint net_a = Fixtures.cs_fingerprint net_b)

(* --- observability does not perturb the match ------------------------------- *)

let prop_traced_sim_equals_serial =
  QCheck.Test.make ~count:40 ~name:"tracing and metrics do not change the match"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize_history schema history in
      let net_a = build_net schema prods in
      List.iter (fun b -> ignore (Serial.run_changes net_a b)) batches;
      let net_b = build_net schema prods in
      let tracer = Psme_obs.Trace.create () in
      let cfg =
        { Sim.procs = 5; queues = Parallel.Multiple_queues; collect_trace = true }
      in
      List.iter (fun b -> ignore (Sim.run_changes ~tracer cfg net_b b)) batches;
      Fixtures.cs_fingerprint net_a = Fixtures.cs_fingerprint net_b)

let prop_traced_sim_self_consistent =
  (* one traced episode's (time, tasks-in-system) samples and its event
     stream must agree with each other and with the returned stats *)
  QCheck.Test.make ~count:40 ~name:"traced sim episode is self-consistent"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize_history schema history in
      let net = build_net schema prods in
      let cfg =
        { Sim.procs = 5; queues = Parallel.Multiple_queues; collect_trace = true }
      in
      List.for_all
        (fun batch ->
          let tracer = Psme_obs.Trace.create () in
          let stats = Sim.run_changes ~tracer cfg net batch in
          let events = Psme_obs.Trace.events tracer in
          let count pred = Array.fold_left (fun a e -> if pred e then a + 1 else a) 0 events in
          let seeds =
            count (fun (e : Psme_obs.Trace.event) ->
                e.kind = Psme_obs.Trace.Queue_push && e.parent = -1)
          in
          let ends = count (fun e -> e.Psme_obs.Trace.kind = Psme_obs.Trace.Task_end) in
          let raw_makespan =
            stats.Cycle.makespan_us
            -. (Cost.default.Cost.alpha_act_us
               *. float_of_int stats.Cycle.alpha_activations)
          in
          let tr = stats.Cycle.trace in
          let n = Array.length tr in
          n >= 2
          (* starts at the seed count, at time zero *)
          && fst tr.(0) = 0.
          && snd tr.(0) = seeds
          (* every task in the system is eventually retired *)
          && snd tr.(n - 1) = 0
          (* samples stay within the episode *)
          && Array.for_all
               (fun (t, k) -> t >= 0. && t <= raw_makespan +. 1e-6 && k >= 0)
               tr
          (* one Task_end per executed task, spawned after its parent *)
          && ends = stats.Cycle.tasks
          && Array.for_all
               (fun (e : Psme_obs.Trace.event) ->
                 e.kind <> Psme_obs.Trace.Task_end
                 || e.parent < 0
                 || e.parent < e.task)
               events)
        batches)

(* --- add/remove symmetry --------------------------------------------------- *)

let prop_remove_all_empties_cs =
  QCheck.Test.make ~count:60 ~name:"removing every wme empties the conflict set"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize_history schema history in
      let net = build_net schema prods in
      let live = Hashtbl.create 32 in
      List.iter
        (fun b ->
          List.iter
            (fun (flag, w) ->
              match flag with
              | Task.Add -> Hashtbl.replace live w.Wme.timetag w
              | Task.Delete -> Hashtbl.remove live w.Wme.timetag)
            b;
          ignore (Serial.run_changes net b))
        batches;
      let removals = Hashtbl.fold (fun _ w acc -> (Task.Delete, w) :: acc) live [] in
      ignore (Serial.run_changes net removals);
      Conflict_set.size net.Network.cs = 0)

let prop_match_is_history_independent =
  QCheck.Test.make ~count:60 ~name:"final conflict set depends only on final wm"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize_history schema history in
      (* incremental *)
      let net_a = build_net schema prods in
      List.iter (fun b -> ignore (Serial.run_changes net_a b)) batches;
      (* from scratch: only the surviving adds *)
      let live = Hashtbl.create 32 in
      List.iter
        (List.iter (fun (flag, w) ->
             match flag with
             | Task.Add -> Hashtbl.replace live w.Wme.timetag w
             | Task.Delete -> Hashtbl.remove live w.Wme.timetag))
        batches;
      let net_b = build_net schema prods in
      let adds = Hashtbl.fold (fun _ w acc -> (Task.Add, w) :: acc) live [] in
      ignore (Serial.run_changes net_b adds);
      Fixtures.cs_fingerprint net_a = Fixtures.cs_fingerprint net_b)

(* --- runtime addition ------------------------------------------------------- *)

let prop_runtime_add_equals_preload =
  QCheck.Test.make ~count:40
    ~name:"add-production-then-update = production-loaded-up-front"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      match prods with
      | [] -> true
      | late :: early ->
        let schema = blocks_schema () in
        let batches = realize_history schema history in
        (* all up front *)
        let net_a = build_net schema (late :: early) in
        List.iter (fun b -> ignore (Serial.run_changes net_a b)) batches;
        (* one production added at run time, then updated *)
        let net_b = build_net schema early in
        let wm = Wm.create () in
        List.iter (fun b -> ignore (Serial.run_changes net_b b)) batches;
        (* mirror the final wm for Update *)
        let live = Hashtbl.create 32 in
        List.iter
          (List.iter (fun (flag, w) ->
               match flag with
               | Task.Add -> Hashtbl.replace live w.Wme.timetag w
               | Task.Delete -> Hashtbl.remove live w.Wme.timetag))
          batches;
        Hashtbl.iter
          (fun _ w -> ignore (Wm.add wm ~cls:w.Wme.cls ~fields:w.Wme.fields))
          live;
        (match Parser.parse_production schema late with
        | p -> (
          try
            let res = Build.add_production net_b p in
            let tasks = Update.update_tasks net_b wm res in
            ignore (Serial.run_tasks net_b tasks)
          with Invalid_argument _ -> ())
        | exception _ -> ());
        (* compare only instantiation counts per production name: the
           update wm uses fresh timetags *)
        let counts net =
          Conflict_set.to_list net.Network.cs
          |> List.map (fun i -> Sym.name i.Conflict_set.prod)
          |> List.sort compare
        in
        List.length (counts net_a) = List.length (counts net_b))

(* --- preference semantics ---------------------------------------------------- *)

let arb_votes =
  let open QCheck.Gen in
  let gen_vote =
    let* v = int_bound 3 in
    let* r = int_bound 3 in
    let* p = int_bound 6 in
    let value = Value.sym (Printf.sprintf "c%d" v) in
    let referent = Some (Value.sym (Printf.sprintf "c%d" r)) in
    return
      (match p with
      | 0 -> { Psme_soar.Prefs.value; ptype = Acceptable; referent = None }
      | 1 -> { Psme_soar.Prefs.value; ptype = Reject; referent = None }
      | 2 -> { Psme_soar.Prefs.value; ptype = Better; referent }
      | 3 -> { Psme_soar.Prefs.value; ptype = Worse; referent }
      | 4 -> { Psme_soar.Prefs.value; ptype = Best; referent = None }
      | 5 -> { Psme_soar.Prefs.value; ptype = Worst; referent = None }
      | _ -> { Psme_soar.Prefs.value; ptype = Indifferent; referent })
  in
  QCheck.make
    ~print:(fun votes -> string_of_int (List.length votes))
    (list_size (int_bound 12) gen_vote)

let prop_decide_sound =
  QCheck.Test.make ~count:500 ~name:"decide: winner is acceptable and not rejected"
    arb_votes
    (fun votes ->
      let acceptable v =
        List.exists
          (fun x -> x.Psme_soar.Prefs.ptype = Acceptable && Value.equal x.value v)
          votes
      in
      let rejected v =
        List.exists
          (fun x -> x.Psme_soar.Prefs.ptype = Reject && Value.equal x.value v)
          votes
      in
      match Psme_soar.Prefs.decide votes with
      | Psme_soar.Prefs.Winner v -> acceptable v && not (rejected v)
      | Psme_soar.Prefs.Tie vs -> List.for_all (fun v -> acceptable v && not (rejected v)) vs
      | Psme_soar.Prefs.No_candidates ->
        List.for_all (fun v -> (not (acceptable v.Psme_soar.Prefs.value))
                               || rejected v.Psme_soar.Prefs.value)
          (List.filter (fun v -> v.Psme_soar.Prefs.ptype = Acceptable) votes))

(* --- data structure properties ----------------------------------------------- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~count:200 ~name:"event queue pops in time order"
    QCheck.(list (pair (float_bound_inclusive 1000.) small_int))
    (fun events ->
      let q = Event_queue.create () in
      List.iter (fun (t, x) -> Event_queue.add q ~time:t x) events;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_token_permute_roundtrip =
  QCheck.Test.make ~count:200 ~name:"token permute by inverse is identity"
    QCheck.(small_nat)
    (fun n ->
      let n = max 1 (n mod 8) in
      let cls = Sym.intern "c" in
      let t =
        Token.of_wmes (Array.init n (fun i -> Wme.make ~cls ~fields:[||] ~timetag:i))
      in
      let rng = Rng.create n in
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let inv = Array.make n 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      Token.equal t (Token.permute (Token.permute t perm) inv))

let prop_histogram_total =
  QCheck.Test.make ~count:200 ~name:"histogram fractions sum to 1"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_bound 2000))
    (fun xs ->
      let rows = Psme_harness.Experiments.tasks_histogram xs in
      let share = List.fold_left (fun a (_, _, _, f) -> a +. f) 0. rows in
      let count = List.fold_left (fun a (_, _, n, _) -> a + n) 0 rows in
      abs_float (share -. 1.) < 1e-9 && count = List.length xs)

let prop_parse_print_roundtrip =
  QCheck.Test.make ~count:100 ~name:"pretty-printed productions re-parse identically"
    arb_productions
    (fun srcs ->
      let schema = blocks_schema () in
      List.for_all
        (fun src ->
          match Parser.parse_production schema src with
          | p ->
            let printed = Format.asprintf "%a" (Production.pp schema) p in
            (match Parser.parse_production schema printed with
            | p' ->
              Production.num_ces p = Production.num_ces p'
              && Production.bound_vars p = Production.bound_vars p'
            | exception _ -> false)
          | exception _ -> true)
        srcs)

let prop_lexer_total =
  QCheck.Test.make ~count:300 ~name:"lexer never crashes (only Lex_error)"
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 60) QCheck.Gen.printable)
    (fun src ->
      match Lexer.tokenize src with
      | toks -> Array.length toks >= 1
      | exception Lexer.Lex_error _ -> true)

let prop_single_line_memory_equivalent =
  (* with a single hash line every activation contends on one lock;
     results must not change *)
  QCheck.Test.make ~count:30 ~name:"one memory line = default memory lines"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      let schema = blocks_schema () in
      let batches = realize_history schema history in
      let build lines =
        let net =
          Network.create ~config:{ Network.default_config with Network.lines } schema
        in
        List.iter
          (fun src ->
            match Parser.parse_production schema src with
            | p -> (
              try ignore (Build.add_production net p) with Invalid_argument _ -> ())
            | exception _ -> ())
          prods;
        List.iter (fun b -> ignore (Serial.run_changes net b)) batches;
        Fixtures.cs_fingerprint net
      in
      build 1 = build 512)

let prop_excise_then_rebuild =
  QCheck.Test.make ~count:30 ~name:"excise + re-add restores the conflict set"
    (QCheck.pair arb_productions arb_history)
    (fun (prods, history) ->
      match prods with
      | [] -> true
      | victim :: _ ->
        let schema = blocks_schema () in
        let batches = realize_history schema history in
        let net = build_net schema prods in
        List.iter (fun b -> ignore (Serial.run_changes net b)) batches;
        let before = Fixtures.cs_fingerprint net in
        (match Parser.parse_production schema victim with
        | p ->
          let name = p.Production.name in
          if Option.is_some (Network.find_production net name) then begin
            Build.excise_production net name;
            (* re-add and update from the surviving wm *)
            let wm = Wm.create () in
            let live = Hashtbl.create 32 in
            List.iter
              (List.iter (fun (flag, w) ->
                   match flag with
                   | Task.Add -> Hashtbl.replace live w.Wme.timetag w
                   | Task.Delete -> Hashtbl.remove live w.Wme.timetag))
              batches;
            Hashtbl.iter (fun _ w -> ignore (Wm.add wm ~cls:w.Wme.cls ~fields:w.Wme.fields)) live;
            (try
               let res = Build.add_production net p in
               let tasks = Update.update_tasks net wm res in
               ignore (Serial.run_tasks net tasks)
             with Invalid_argument _ -> ())
          end;
          (* instantiation multiset per production must match in count *)
          let count fp = List.length (String.split_on_char ';' fp) in
          count (Fixtures.cs_fingerprint net) = count before
        | exception _ -> true))

(* --- working-memory indexes ------------------------------------------ *)

(* Random add/remove histories over three contents, so equal contents
   are often present several times: after every step the contents index
   answers what a linear scan of the live wmes does. An op is
   [(true, c)] add contents [c], or [(false, k)] remove the [k]-th live
   wme (mod the live count). *)
let prop_wm_contents_index =
  let contents c = [| Value.Int c; Value.sym "x" |] in
  let cls = Sym.intern "wm-prop" in
  QCheck.Test.make ~count:200 ~name:"wm contents index = linear scan"
    QCheck.(list_of_size Gen.(int_range 1 60) (pair bool (int_bound 8)))
    (fun ops ->
      let wm = Wm.create () in
      let live = ref [] (* newest first *) and gone = ref [] in
      let agrees () =
        let latest c =
          List.find_opt (fun w -> Value.equal w.Wme.fields.(0) (Value.Int c)) !live
        in
        Wm.size wm = List.length !live
        && List.for_all (Wm.mem wm) !live
        && (not (List.exists (Wm.mem wm) !gone))
        && List.for_all
             (fun c ->
               let found = Wm.find_same_contents wm ~cls ~fields:(contents c) in
               Option.map (fun w -> w.Wme.timetag) found
               = Option.map (fun w -> w.Wme.timetag) (latest c))
             [ 0; 1; 2 ]
      in
      List.for_all
        (fun (add, n) ->
          (if add then live := Wm.add wm ~cls ~fields:(contents (n mod 3)) :: !live
           else
             match !live with
             | [] -> ()
             | l ->
               let victim = List.nth l (n mod List.length l) in
               Wm.remove wm victim;
               live := List.filter (fun w -> not (Wme.equal w victim)) l;
               gone := victim :: !gone);
          agrees ())
        ops)

(* At every decision of a serial run, the indexed slot and preference
   lookups equal a scan of working memory: the slot is its latest goal
   wme, the preferences compare as a multiset. *)
let test_agent_slot_index () =
  let open Psme_soar in
  let roles = [ "problem-space"; "state"; "operator" ] in
  let goal_cls = Sym.intern "goal" in
  let check agent =
    let wmes = Wm.to_list (Agent.wm agent) (* ascending timetag *) in
    let goals =
      List.sort_uniq Sym.compare
        (List.filter_map
           (fun w ->
             match Prefs.decode w with
             | Some (g, _, _) -> Some g
             | None -> (
               match w.Wme.fields with
               | [| Value.Sym g; _; _ |] when Sym.equal w.Wme.cls goal_cls -> Some g
               | _ -> None))
           wmes)
    in
    List.iter
      (fun g ->
        List.iter
          (fun role ->
            let scanned_slot =
              List.fold_left
                (fun acc w ->
                  if
                    Sym.equal w.Wme.cls goal_cls
                    && Value.equal w.Wme.fields.(0) (Value.Sym g)
                    && Value.equal w.Wme.fields.(1) (Value.sym role)
                  then Some w.Wme.fields.(2)
                  else acc)
                None wmes
            in
            let scanned_prefs =
              List.filter_map
                (fun w ->
                  match Prefs.decode w with
                  | Some (g', r, vote) when Sym.equal g' g && Sym.name r = role ->
                    Some (w.Wme.timetag, vote)
                  | _ -> None)
                wmes
            in
            let indexed_prefs =
              List.sort compare
                (List.map
                   (fun (vote, w) -> (w.Wme.timetag, vote))
                   (Agent.prefs_for agent ~goal:g ~role))
            in
            let where = Printf.sprintf "%s ^%s" (Sym.name g) role in
            if Agent.slot agent ~goal:g ~role <> scanned_slot then
              Alcotest.failf "slot %s differs from a scan" where;
            if indexed_prefs <> scanned_prefs then
              Alcotest.failf "preferences for %s differ from a scan" where)
          roles)
      goals
  in
  let serial = { Agent.default_config with Agent.engine_mode = Engine.Serial_mode } in
  List.iter
    (fun (name, agent) ->
      let decisions = ref 0 in
      Agent.set_monitor agent (fun _ ->
          incr decisions;
          check agent);
      ignore (Agent.run agent);
      if !decisions = 0 then Alcotest.failf "%s: no decision checked" name)
    (List.map
       (fun (w : Psme_workloads.Workload.t) ->
         (w.Psme_workloads.Workload.name, w.Psme_workloads.Workload.make ~config:serial ()))
       Psme_workloads.[ Eight_puzzle.workload; Strips.workload; Cypress.workload ]
    @ [ ("io-stream", Psme_workloads.Io_stream.make_agent ~config:serial ()) ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sim_equals_serial;
      prop_parallel_equals_serial;
      prop_traced_sim_equals_serial;
      prop_traced_sim_self_consistent;
      prop_remove_all_empties_cs;
      prop_match_is_history_independent;
      prop_runtime_add_equals_preload;
      prop_decide_sound;
      prop_event_queue_sorted;
      prop_token_permute_roundtrip;
      prop_histogram_total;
      prop_parse_print_roundtrip;
      prop_lexer_total;
      prop_single_line_memory_equivalent;
      prop_excise_then_rebuild;
      prop_wm_contents_index;
    ]
  @ [ Alcotest.test_case "agent slot and preference index = scan" `Quick test_agent_slot_index ]
