(* Frozen measurements for the shipped workloads.

   Every block below runs in a forked copy of the freshly started
   process, so the symbol table — and therefore every khash and line
   assignment — is in its deterministic initial state (a later run in
   the same process would see the identifiers the earlier one
   interned). The runtest rule diffs the output against
   golden.expected.

   - Serial engine, eight-puzzle then strips, learning off: the totals
     the cost model is built on.
   - Sim engine, multiple queues, learning off, one process per point:
     the model-time speedups the paper reports (`Cycle.speedup` over
     the run's totals) for eight-puzzle, strips and cypress at 1 and 13
     processes — what `soar_cli run <task> --engine sim --procs P
     --learning=false` prints.

   A kernel optimization must leave every one of these numbers
   bit-identical (it may change speed, never the reproduced
   measurements). Use `dune promote` only for a change that is
   *supposed* to alter match semantics or the cost model, and say so in
   the commit. *)

let in_fresh_process f =
  flush stdout;
  match Unix.fork () with
  | 0 ->
    f ();
    exit 0
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "golden: child run failed")

let () =
  let open Psme_workloads in
  let open Psme_soar in
  let totals (w : Workload.t) engine_mode =
    let agent =
      w.Workload.make
        ~config:{ Agent.default_config with Agent.learning = false; engine_mode }
        ()
    in
    ignore (Agent.run agent);
    Psme_engine.Engine.totals (Agent.engine agent)
  in
  in_fresh_process (fun () ->
      List.iter
        (fun (w : Workload.t) ->
          let t = totals w Psme_engine.Engine.Serial_mode in
          Printf.printf "%s scanned=%d alpha=%d tasks=%d emitted=%d\n"
            w.Workload.name t.Psme_engine.Cycle.scanned
            t.Psme_engine.Cycle.alpha_activations t.Psme_engine.Cycle.tasks
            t.Psme_engine.Cycle.emitted)
        [ Eight_puzzle.workload; Strips.workload ]);
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun procs ->
          in_fresh_process (fun () ->
              let mode =
                Psme_engine.Engine.Sim_mode
                  {
                    Psme_engine.Sim.procs;
                    queues = Psme_engine.Parallel.Multiple_queues;
                    collect_trace = false;
                  }
              in
              Printf.printf "%s sim procs=%d speedup=%.4f\n" w.Workload.name procs
                (Psme_engine.Cycle.speedup (totals w mode))))
        [ 1; 13 ])
    [ Eight_puzzle.workload; Strips.workload; Cypress.workload ]
