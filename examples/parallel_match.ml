(* The real parallel engine: OCaml 5 domains pulling node activations
   from shared task queues against the line-locked global memories.
   Every engine must produce the same conflict set; this example checks
   that on a live workload and reports the lock/queue statistics the
   paper measures (§6.1).

   Run with: dune exec examples/parallel_match.exe *)

open Psme_support
open Psme_ops5
open Psme_rete
open Psme_engine

let build_network () =
  let schema = Schema.create () in
  let prods =
    Parser.productions schema
      {|
(literalize item kind weight on)
(literalize bin name load)

(p stackable
  (item ^kind <k> ^weight <w>)
  (item ^kind <k> ^weight > <w> ^on nil)
  (bin ^name <b>)
  -->
  (write <k> <b>))

(p heavy-pair
  (item ^kind <k1> ^weight <w>)
  (item ^kind { <k2> <> <k1> } ^weight <w>)
  -->
  (write <k1> <k2>))
|}
  in
  let net = Network.create schema in
  ignore (Build.add_all net prods);
  (schema, net)

let changes schema n =
  let rng = Rng.create 42 in
  let kinds = [| "box"; "crate"; "drum"; "pallet" |] in
  List.init n (fun i ->
      let cls = Sym.intern "item" in
      let fields = Array.make (Schema.arity schema cls) Value.nil in
      fields.(Schema.field_index schema cls (Sym.intern "kind")) <-
        Value.sym kinds.(Rng.int rng 4);
      fields.(Schema.field_index schema cls (Sym.intern "weight")) <-
        Value.Int (Rng.int rng 20);
      (Task.Add, Wme.make ~cls ~fields ~timetag:(i + 1)))

let lock_spins () =
  let tm = Psme_obs.Telemetry.global in
  List.assoc "telemetry.lock.spins" (Psme_obs.Telemetry.snapshot_kv tm)

let () =
  let n = 150 in
  (* Reference: serial. *)
  let schema, net_serial = build_network () in
  ignore (Serial.run_changes net_serial (changes schema n));
  let reference = Conflict_set.size net_serial.Network.cs in
  Format.printf "serial engine:   %d instantiations@." reference;
  (* Real domains, single shared queue and multiple queues. *)
  List.iter
    (fun (label, queues) ->
      let _, net = build_network () in
      let spins_before = lock_spins () in
      let stats =
        Parallel.run_changes
          { Parallel.processes = 3; queues }
          net (changes schema n)
      in
      Format.printf "%s %d instantiations, %d tasks, %d failed pops, %.0f lock spins@."
        label
        (Conflict_set.size net.Network.cs)
        stats.Cycle.tasks stats.Cycle.failed_pops
        (lock_spins () -. spins_before);
      assert (Conflict_set.size net.Network.cs = reference))
    [
      ("3 domains (1q): ", Parallel.Single_queue);
      ("3 domains (nq): ", Parallel.Multiple_queues);
    ];
  (* And the simulated 13-processor Multimax. *)
  let _, net = build_network () in
  let stats =
    Sim.run_changes
      { Sim.procs = 13; queues = Parallel.Single_queue; collect_trace = false }
      net (changes schema n)
  in
  assert (Conflict_set.size net.Network.cs = reference);
  Format.printf
    "simulated 13p:   %d instantiations, speedup %.2f, %.0f queue spins (%.1f/task)@."
    (Conflict_set.size net.Network.cs)
    (Cycle.speedup stats) stats.Cycle.queue_spins
    (stats.Cycle.queue_spins /. float_of_int stats.Cycle.tasks);
  Format.printf "all engines agree with the serial conflict set.@."
