(* Bechamel micro-benchmarks of the matcher's layers: alpha dispatch,
   join/negative scans, token extend, line-locked memory operations,
   wme churn, run-time production addition (the §5.1 mechanism, with
   the sharing ablation) and the tracer's emit path.

     dune exec bench/main.exe

   The executable takes no arguments, prints ns per run for each micro
   and gates nothing: wall clock is judged by the soarbench A/B, and
   the paper's tables and figures come from `soar_cli report`.

   The micro fixtures are deliberately *populated*: the match kernel's
   cost is per-probe complexity against loaded memories (hash-line
   collision chains), not the empty-table fast path, so the fixtures
   pre-load working memory / memory lines before staging the measured
   operation. *)

open Psme_support
open Psme_ops5
open Psme_rete
open Bechamel
open Toolkit

(* --- micro-benchmark fixtures ------------------------------------------ *)

let fixture_schema () =
  let schema = Schema.create () in
  ignore
    (Parser.parse_program schema
       {|
(literalize block name color on state)
(literalize hand state name)
(literalize place name table)
|});
  schema

let fixture_net ?(lines = 512) schema =
  let prods =
    Parser.productions schema
      {|
(p g1 (block ^name <x> ^color blue) -(block ^on <x>) (hand ^state free) --> (write a))
(p g2 (block ^name <x> ^color red) (place ^name <x>) --> (write b))
(p g3 (block ^name <x> ^state <s>) (block ^name <> <x> ^state <s>) --> (write c))
|}
  in
  let net =
    Network.create ~config:{ Network.default_config with Network.lines } schema
  in
  ignore (Build.add_all net prods);
  net

let block_wme ?on ~name ~color ~state ~timetag () =
  let fields = Array.make 4 Value.nil in
  fields.(0) <- Value.sym name;
  fields.(1) <- Value.sym color;
  (match on with None -> () | Some o -> fields.(2) <- Value.sym o);
  fields.(3) <- Value.sym state;
  Wme.make ~cls:(Sym.intern "block") ~fields ~timetag

(* A net under sustained load: 16 hash lines (so distinct-key entries
   collide into shared lines, the regime §6.1's line lock exists for)
   and a working memory of blocks already resident in the entry and
   two-input memories. The residents form an ^on cycle (p0 sits on p191,
   p_i on p_{i-1}) so every join key — name, on, state — is distinct:
   the populated memories hold many entries per *line* (~256) but few
   per *bucket*, which is the regime the secondary index targets (an
   all-nil ^on column would funnel every entry into one bucket and
   measure nothing but chain walking). The measured operation is the
   paper's unit of match work: one wme add and its retraction. *)
let bench_wme_churn =
  Test.make ~name:"match: add+delete one wme (serial)"
    (let schema = fixture_schema () in
     let net = fixture_net ~lines:16 schema in
     let resident = 1024 in
     let () =
       List.iter
         (fun w -> ignore (Psme_engine.Serial.run_changes net [ (Task.Add, w) ]))
         (List.init resident (fun i ->
              block_wme
                ~on:(Printf.sprintf "p%d" ((i + resident - 1) mod resident))
                ~name:(Printf.sprintf "p%d" i) ~color:"blue"
                ~state:(Printf.sprintf "s%d" i) ~timetag:(i + 1) ()))
     in
     let () =
       let fields = Array.make 3 Value.nil in
       fields.(0) <- Value.sym "free";
       let hand = Wme.make ~cls:(Sym.intern "hand") ~fields ~timetag:(resident + 1) in
       ignore (Psme_engine.Serial.run_changes net [ (Task.Add, hand) ])
     in
     let tag = ref (resident + 1) in
     Staged.stage (fun () ->
         incr tag;
         let w = block_wme ~name:"bench" ~color:"blue" ~state:"sbench" ~timetag:!tag () in
         ignore (Psme_engine.Serial.run_changes net [ (Task.Add, w) ]);
         ignore (Psme_engine.Serial.run_changes net [ (Task.Delete, w) ])))

let added_prod schema n =
  Parser.parse_production schema
    (Printf.sprintf
       {|(p added-%d (block ^name <x> ^color blue) (place ^name <x> ^table free) --> (write x))|}
       n)

let bench_add_production ~share name =
  Test.make ~name
    (let counter = ref 0 in
     let schema = fixture_schema () in
     Staged.stage (fun () ->
         (* a fresh small network per iteration: run-time addition cost
            includes the share-point search against existing nodes *)
         let net =
           Network.create ~config:{ Network.default_config with Network.share } schema
         in
         ignore
           (Build.add_all net
              (Parser.productions schema
                 {|(p base (block ^name <x> ^color blue) (hand ^state free) --> (write a))|}));
         incr counter;
         ignore (Build.add_production net (added_prod schema !counter))))

let bench_token_ops =
  Test.make ~name:"token: extend+hash (8 slots)"
    (let cls = Sym.intern "block" in
     let wmes = Array.init 8 (fun i -> Wme.make ~cls ~fields:[||] ~timetag:i) in
     Staged.stage (fun () ->
         let t = ref (Token.singleton wmes.(0)) in
         for i = 1 to 7 do
           t := Token.extend !t wmes.(i)
         done;
         ignore (Token.hash !t)))

(* One join level at depth [d]: the cost of Token.extend must not grow
   with the chain already matched (the paper's long-chain productions,
   §6.2, pay this on every level). *)
let bench_token_depth d =
  Test.make ~name:(Printf.sprintf "token: extend+hash @depth=%d" d)
    (let cls = Sym.intern "block" in
     let base =
       let t = ref (Token.singleton (Wme.make ~cls ~fields:[||] ~timetag:0)) in
       for i = 1 to d - 1 do
         t := Token.extend !t (Wme.make ~cls ~fields:[||] ~timetag:i)
       done;
       !t
     in
     let w = Wme.make ~cls ~fields:[||] ~timetag:d in
     Staged.stage (fun () -> ignore (Token.hash (Token.extend base w))))

(* One line loaded with [resident] entries of *distinct* (node, khash)
   keys that all collide into the same hash line — the §6.1 collision
   chain. The measured op probes one key; its cost should depend on the
   bucket, not the line. *)
let bench_memory_ops =
  Test.make ~name:"memory: insert+probe+remove under line lock"
    (let lines = 64 in
     let mem = Memory.create ~lines () in
     let cls = Sym.intern "c" in
     let resident = 128 in
     let () =
       for i = 1 to resident do
         (* khash multiples of [lines] all map to line 0, distinct keys *)
         let kh = i * lines in
         let w = Wme.make ~cls ~fields:[||] ~timetag:(1000 + i) in
         let line = Memory.line_of mem ~khash:kh in
         Memory.locked mem ~line (fun () ->
             ignore
               (Memory.left_add mem ~node:(100 + i) ~khash:kh (Token.singleton w)
                  ~count:0))
       done
     in
     let tag = ref 0 in
     let kh = (resident + 7) * lines in
     let line = Memory.line_of mem ~khash:kh in
     Staged.stage (fun () ->
         incr tag;
         let w = Wme.make ~cls ~fields:[||] ~timetag:!tag in
         let tok = Token.singleton w in
         Memory.locked mem ~line (fun () ->
             ignore (Memory.left_add mem ~node:1 ~khash:kh tok ~count:0);
             ignore (Memory.left_iter mem ~node:1 ~khash:kh (fun _ -> ()));
             ignore (Memory.left_remove mem ~node:1 ~khash:kh tok))))

let bench_alpha =
  Test.make ~name:"alpha: constant-test pass for one wme"
    (let schema = fixture_schema () in
     let net = fixture_net schema in
     let cls = Sym.intern "block" in
     let fields = Array.make 4 Value.nil in
     let () = fields.(1) <- Value.sym "blue" in
     let w = Wme.make ~cls ~fields ~timetag:1 in
     Staged.stage (fun () -> ignore (Runtime.seed_wme_change net Task.Add w)))

(* Wide literal discrimination: 64 sibling constant tests on the same
   field. A list-walk alpha network pays all 64 per wme; a dispatch
   table pays one lookup. *)
let bench_alpha_wide =
  Test.make ~name:"alpha: 64-way sibling constant dispatch"
    (let schema = fixture_schema () in
     let prods =
       String.concat "\n"
         (List.init 64 (fun i ->
              Printf.sprintf
                {|(p w%d (block ^name n%d ^state live) --> (write x))|} i i))
     in
     let net = Network.create schema in
     ignore (Build.add_all net (Parser.productions schema prods));
     let w = block_wme ~name:"n63" ~color:"c" ~state:"live" ~timetag:1 () in
     Staged.stage (fun () -> ignore (Runtime.seed_wme_change net Task.Add w)))

(* --- match kernel --------------------------------------------------------- *)

(* Each kernel builds a one-production network and measures one
   activation against a populated opposite memory. The fixture funnels
   128 residents into ONE hash bucket (shared join key) with a 4-test
   chain (1 eq + 3 residuals), so the measured cost is the
   per-candidate test loop. *)

let kernel_join_prod =
  {|(p kjoin (block ^name <x> ^color <c> ^on <o> ^state <s>)
            (block ^on <x> ^name <> <o> ^color <> <c> ^state <> <s>)
            --> (write j))|}

let kernel_neg_prod =
  {|(p kneg (block ^name <x> ^color <c> ^on <o> ^state <s>)
           -(block ^on <x> ^name <> <o> ^color <> <c> ^state <> <s>)
           --> (write n))|}

let kernel_fixture ~src ~kindp =
  let schema = fixture_schema () in
  let net =
    Network.create ~config:{ Network.default_config with Network.lines = 16 } schema
  in
  ignore (Build.add_all net (Parser.productions schema src));
  let node =
    Network.fold_nodes net ~init:None ~f:(fun acc n ->
        match acc with
        | Some _ -> acc
        | None -> if kindp n.Network.kind then Some n else None)
  in
  (net, Option.get node)

(* Token-side activation: the left token arrives, the right memory holds
   the residents. All 4 tests pass for every candidate (join emits 128
   children; neg counts 128 blockers and emits none — the pure scan). *)
let bench_kernel_left ~neg =
  Test.make
    ~name:(Printf.sprintf "kernel: %s-left 4-test scan" (if neg then "neg" else "join"))
    (let src = if neg then kernel_neg_prod else kernel_join_prod in
     let kindp = function
       | Network.Join _ -> not neg
       | Network.Neg _ -> neg
       | _ -> false
     in
     let net, node = kernel_fixture ~src ~kindp in
     let nid = node.Network.id in
     let snode = Some node in
     let o = Runtime.outcome () in
     let resident = 128 in
     let () =
       for i = 1 to resident do
         let w =
           block_wme ~on:"kb" ~name:(Printf.sprintf "n%d" i)
             ~color:(Printf.sprintf "c%d" i)
             ~state:(Printf.sprintf "s%d" i)
             ~timetag:i ()
         in
         Runtime.exec net snode (Task.Right { node = nid; flag = Task.Add; wme = w }) o
       done
     in
     let lw = block_wme ~name:"kb" ~color:"lc" ~on:"lo" ~state:"ls" ~timetag:9001 () in
     let token = Token.singleton lw in
     Staged.stage (fun () ->
         Runtime.exec net snode (Task.Left { node = nid; flag = Task.Add; token }) o;
         Runtime.exec net snode (Task.Left { node = nid; flag = Task.Delete; token }) o))

(* Miss scan: every candidate evaluates the full four-test chain (the
   last residual fails) and nothing is emitted, so the measured cost is
   the per-candidate test-evaluation kernel alone — no token-extension
   or task-allocation tail. *)
let bench_kernel_miss =
  Test.make ~name:"kernel: join-left 4-test miss scan"
    (let kindp = function Network.Join _ -> true | _ -> false in
     let net, node = kernel_fixture ~src:kernel_join_prod ~kindp in
     let nid = node.Network.id in
     let snode = Some node in
     let o = Runtime.outcome () in
     let () =
       for i = 1 to 128 do
         let w =
           block_wme ~on:"kb" ~name:(Printf.sprintf "n%d" i)
             ~color:(Printf.sprintf "c%d" i)
             ~state:"ms" ~timetag:i ()
         in
         Runtime.exec net snode (Task.Right { node = nid; flag = Task.Add; wme = w }) o
       done
     in
     let lw = block_wme ~name:"kb" ~color:"lc" ~on:"lo" ~state:"ms" ~timetag:9001 () in
     let token = Token.singleton lw in
     Staged.stage (fun () ->
         Runtime.exec net snode (Task.Left { node = nid; flag = Task.Add; token }) o;
         Runtime.exec net snode (Task.Left { node = nid; flag = Task.Delete; token }) o))

(* Wme-side activation: the right wme arrives, the left memory holds 128
   resident tokens in the same bucket. *)
let bench_kernel_right =
  Test.make ~name:"kernel: join-right 4-test scan"
    (let kindp = function Network.Join _ -> true | _ -> false in
     let net, node = kernel_fixture ~src:kernel_join_prod ~kindp in
     let nid = node.Network.id in
     let snode = Some node in
     let o = Runtime.outcome () in
     let resident = 128 in
     let () =
       for i = 1 to resident do
         let lw =
           block_wme ~name:"kb"
             ~color:(Printf.sprintf "lc%d" i)
             ~on:(Printf.sprintf "lo%d" i)
             ~state:(Printf.sprintf "ls%d" i)
             ~timetag:(2000 + i) ()
         in
         Runtime.exec net snode
           (Task.Left { node = nid; flag = Task.Add; token = Token.singleton lw })
           o
       done
     in
     let tag = ref 9000 in
     Staged.stage (fun () ->
         incr tag;
         let w = block_wme ~on:"kb" ~name:"rn" ~color:"rc" ~state:"rs" ~timetag:!tag () in
         Runtime.exec net snode (Task.Right { node = nid; flag = Task.Add; wme = w }) o;
         Runtime.exec net snode (Task.Right { node = nid; flag = Task.Delete; wme = w }) o))

let bench_trace_emit =
  (* the per-event cost tracing adds to an engine's hot loop *)
  Test.make ~name:"obs: tracer emit (ring store)"
    (let tr = Psme_obs.Trace.create ~capacity:(1 lsl 16) () in
     let t = ref 0. in
     Staged.stage (fun () ->
         t := !t +. 1.;
         Psme_obs.Trace.emit tr Psme_obs.Trace.Task_end ~t_us:!t ~proc:1 ~node:7
           ~task:3 ~parent:1 ~dur_us:400. ~scanned:5 ~emitted:2 ()))

let micro_benchmarks () =
  [
    bench_wme_churn;
    bench_add_production ~share:true "compile: add production, sharing on";
    bench_add_production ~share:false "compile: add production, sharing off";
    bench_token_ops;
    bench_token_depth 4;
    bench_token_depth 64;
    bench_token_depth 256;
    bench_memory_ops;
    bench_alpha;
    bench_alpha_wide;
    bench_kernel_left ~neg:false;
    bench_kernel_left ~neg:true;
    bench_kernel_miss;
    bench_kernel_right;
    bench_trace_emit;
  ]

let run_micro () =
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.fold
        (fun name result acc ->
          let est =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Some est
            | _ -> None
          in
          (* strip Bechamel's "g/" group prefix *)
          let name =
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          (name, est) :: acc)
        ols [])
    (micro_benchmarks ())

let () =
  Format.printf "== micro-benchmarks (Bechamel, ns/iteration) ==@.";
  List.iter
    (fun (name, est) ->
      match est with
      | Some e -> Format.printf "%-48s %12.0f ns/run@." name e
      | None -> Format.printf "%-48s (no estimate)@." name)
    (run_micro ())
