(* The repository's benchmark: one workload per process, netlist -> legal.

   usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see perfbench/README.md for their make-up and why each is
   here):
   - synth_sb12: cold Flow.run on two generated superblue12 instances;
   - gp_fed:     Gp.place -> Flow.run -> Refine.run on three designs;
   - eco_fft2:   16 Incr sessions, each fed a short stream of move batches.

   The program only ever receives generated inputs; every call into it is
   timed here, from the benchmark's own clock, and every output is checked
   by Perfcheck (independent of the program's own legality checker).

   --trace 0 runs whole rounds of operations until S seconds have passed
   and prints the end-to-end metrics. --trace 1 runs one untraced round,
   then the same round again with every public call wrapped in a span,
   and prints the per-layer metrics plus the tracing overhead; the spans
   are written to .bench_build/perfbench/trace_<workload>_<seed>.json.

   The last line of stdout is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

open Mclh_circuit
open Mclh_core
module Generate = Mclh_benchgen.Generate
module Spec = Mclh_benchgen.Spec
module Gp = Mclh_gp.Gp
module Refine = Mclh_refine.Refine
module Incr = Mclh_incr.Incr
module Edit = Mclh_incr.Edit

let now = Unix.gettimeofday

(* One domain: on the 2-core machines this benchmark was tuned on, two
   domains were not faster than one, and placements are bit-identical
   across domain counts, so only time would change. *)
let domains = 1

let config = { Config.default with num_domains = domains; metrics = false }

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written out when the run ends.            *)

type span = {
  sid : int;
  parent : int;  (** enclosing span, [-1] at top level *)
  op : int;  (** operation the span belongs to *)
  name : string;
  start : float;
  stop : float;
}

let tracing = ref false
let spans = ref []
let next_sid = ref 0
let open_spans = ref []
let current_op = ref 0

(* Runs [f], recording a span around it when tracing; returns the result
   and its wall time either way. *)
let timed name f =
  if not !tracing then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let sid = !next_sid in
    incr next_sid;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := sid :: !open_spans;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      open_spans := List.tl !open_spans;
      spans :=
        { sid; parent; op = !current_op; name; start = t0; stop = t1 }
        :: !spans;
      t1 -. t0
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_spans path =
  let spans = List.rev !spans in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.0)
          +. (s.stop -. s.start)))
    spans;
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      let dur = s.stop -. s.start in
      let self =
        dur -. (try Hashtbl.find child_time s.sid with Not_found -> 0.0)
      in
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": \"%s\", \
         \"start_s\": %s, \"dur_s\": %s, \"self_s\": %s}\n"
        (if i = 0 then "  " else ", ")
        s.sid s.parent s.op s.name
        (json_float (s.start -. t0))
        (json_float dur) (json_float self))
    spans;
  output_string oc "]\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Layer counters of the traced round.                                 *)

let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let get name = try Hashtbl.find layer name with Not_found -> 0.0
let add name v = Hashtbl.replace layer name (get name +. v)
let addi name v = add name (float_of_int v)
let keep_max name v = Hashtbl.replace layer name (Float.max (get name) v)

(* Every per-layer metric, with its unit; a metric a workload does not
   exercise reads 0. *)
let layer_metrics =
  [ ("benchgen.generate_s", "s");
    ("gp.place_s", "s");
    ("gp.rounds", "count");
    ("gp.cg_iterations", "count");
    ("gp.density_s", "s");
    ("gp.final_overflow", "ratio");
    ("row_assign.assign_s", "s");
    ("model.build_s", "s");
    ("model.nvars", "count");
    ("decompose.analyze_s", "s");
    ("decompose.components", "count");
    ("decompose.largest_dim", "count");
    ("solver.solve_s", "s");
    ("solver.ms_per_iter", "ms");
    ("solver.iterations_total", "count");
    ("solver.iterations_max", "count");
    ("solver.fallbacks", "count");
    ("solver.backend.chain_free", "count");
    ("solver.backend.lemke", "count");
    ("solver.backend.active_set", "count");
    ("solver.backend.accel", "count");
    ("solver.backend.plain", "count");
    ("tetris_alloc.alloc_s", "s");
    ("tetris_alloc.illegal_before", "count");
    ("tetris_alloc.relocated", "count");
    ("refine.run_s", "s");
    ("refine.moves", "count");
    ("refine.swaps", "count");
    ("refine.reorders", "count");
    ("refine.hpwl_gain", "ratio");
    ("incr.dirty_shards", "count");
    ("incr.cache_hit_ratio", "ratio");
    ("incr.solve_iterations", "count");
    ("incr.cold_flow_s", "s");
    ("incr.cold_diff_cells", "count");
    ("trace.overhead_pct", "%") ]

(* ------------------------------------------------------------------ *)
(* Operations and their checks.                                        *)

type outcome = {
  cells : int;
  wall_s : float;  (** wall time of the program calls only *)
  failure : string option;
      (** raised, left cells unplaced, did not converge, or failed a check *)
  disp_total : float;
  disp_max : float;
  hpwl_in : float;
  hpwl_out : float;
  final : Placement.t option;
}

(* A failed output check makes the whole run incorrect; a failure the
   program reports itself (non-convergence, unplaced cells, an exception)
   only fails its operation. *)
let correct = ref true

let check_failure label msg =
  correct := false;
  Printf.eprintf "CHECK FAILED [%s]: %s\n%!" label msg;
  Some ("check: " ^ msg)

(* The final-placement checks shared by every workload: legality by the
   independent checker, and the program's HPWL and displacement against
   the checker's recomputation. Returns the first failure, if any. *)
let check_final label (d : Design.t) ~(input : Placement.t) (final : Placement.t)
    =
  let rh = d.chip.row_height in
  match Perfcheck.violations d final with
  | v :: _ as vs ->
    check_failure label
      (Printf.sprintf "%d violations, first: %s" (List.length vs)
         (Perfcheck.to_string v))
  | [] ->
    let mine = Perfcheck.hpwl d final and theirs = Hpwl.total ~row_height:rh d.nets final in
    let mine_in = Perfcheck.hpwl d input
    and theirs_in = Hpwl.total ~row_height:rh d.nets input in
    let disp = Perfcheck.displacement d ~before:input final in
    let m = Metrics.displacement ~row_height:rh ~before:input final in
    if not (Perfcheck.rel_close mine theirs && Perfcheck.rel_close mine_in theirs_in)
    then
      check_failure label
        (Printf.sprintf "hpwl %.17g (checker) vs %.17g (Hpwl.total)" mine theirs)
    else if
      not
        (Perfcheck.rel_close disp.total m.Metrics.total_manhattan
        && Perfcheck.rel_close disp.max m.Metrics.max_manhattan)
    then
      check_failure label
        (Printf.sprintf "displacement %.17g (checker) vs %.17g (Metrics)"
           disp.total m.Metrics.total_manhattan)
    else None

let measured (d : Design.t) ~input final ~wall_s ~failure =
  let disp = Perfcheck.displacement d ~before:input final in
  { cells = Design.num_cells d;
    wall_s;
    failure;
    disp_total = disp.total;
    disp_max = disp.max;
    hpwl_in = Perfcheck.hpwl d input;
    hpwl_out = Perfcheck.hpwl d final;
    final = Some final }

let raised wall_s e =
  { cells = 0;
    wall_s;
    failure = Some ("raised " ^ Printexc.to_string e);
    disp_total = 0.0;
    disp_max = 0.0;
    hpwl_in = 0.0;
    hpwl_out = 0.0;
    final = None }

type legalized = {
  legal : Placement.t;
  solver : Solver.result;
  alloc : Tetris_alloc.result;
}

(* Why a legalization whose final placement is [final] failed, if it did:
   cells left unplaced (then the placement is illegal by the program's own
   account, and is not checked), a failed output check, or a solve that
   did not converge. *)
let legalization_failure label (d : Design.t) ~input (r : legalized) final =
  if r.alloc.unplaced <> [] then
    Some (Printf.sprintf "%s: %d cells unplaced" label (List.length r.alloc.unplaced))
  else
    match check_final label d ~input final with
    | Some f -> Some f
    | None when not r.solver.converged ->
      Some
        (Printf.sprintf "%s: solver did not converge (delta_inf %.3g, %d fallbacks)"
           label r.solver.delta_inf r.solver.backends.fallbacks)
    | None -> None

(* Legalization: untraced, the one public call [Flow.run]; traced, the
   same stages called one by one, each in its span, in Flow.run's order
   and with its arguments (the traced round checks the placement is
   bit-identical). Flow.run has no Decompose.analyze stage: Solver.solve
   runs the analysis inside. The traced round calls it once more, on the
   same model, for its span and counts, and leaves that second copy out
   of the operation's wall time. [kernel_probe] marks the operation whose
   solve gives solver.ms_per_iter. *)
let legalize ?(kernel_probe = false) (d : Design.t) =
  if not !tracing then begin
    let r, wall = timed "flow.run" (fun () -> Flow.run ~config d) in
    ({ legal = r.legal; solver = r.solver; alloc = r.alloc }, wall)
  end
  else begin
    let assignment, t_assign =
      timed "row_assign.assign" (fun () -> Row_assign.assign d)
    in
    let model, t_model =
      timed "model.build" (fun () ->
          Model.build ~num_domains:config.num_domains d assignment)
    in
    let deco, t_deco =
      timed "decompose.analyze" (fun () -> Decompose.analyze model)
    in
    let solver, t_solve = timed "solver.solve" (fun () -> Solver.solve ~config model) in
    let relaxed = Model.placement_of model solver.x in
    let alloc, t_alloc =
      timed "tetris_alloc.run" (fun () -> Tetris_alloc.run d relaxed)
    in
    add "row_assign.assign_s" t_assign;
    add "model.build_s" t_model;
    addi "model.nvars" model.nvars;
    add "decompose.analyze_s" t_deco;
    addi "decompose.components" deco.num_components;
    keep_max "decompose.largest_dim" (float_of_int deco.largest_dim);
    add "solver.solve_s" t_solve;
    if kernel_probe && solver.iterations > 0 then
      add "solver.ms_per_iter" (1000.0 *. t_solve /. float_of_int solver.iterations);
    addi "solver.iterations_total" solver.iterations_total;
    keep_max "solver.iterations_max" (float_of_int solver.iterations);
    addi "solver.fallbacks" solver.backends.fallbacks;
    addi "solver.backend.chain_free" solver.backends.chain_free;
    addi "solver.backend.lemke" solver.backends.lemke;
    addi "solver.backend.active_set" solver.backends.active_set;
    addi "solver.backend.accel" solver.backends.accel;
    addi "solver.backend.plain" solver.backends.plain;
    add "tetris_alloc.alloc_s" t_alloc;
    addi "tetris_alloc.illegal_before" alloc.illegal_before;
    addi "tetris_alloc.relocated" alloc.relocated;
    ( { legal = alloc.placement; solver; alloc },
      t_assign +. t_model +. t_solve +. t_alloc )
  end

(* ------------------------------------------------------------------ *)
(* Instances.                                                           *)

let generate ?(blockages = 0.0) ?(blockage_count = 4) ~seed ~scale name =
  let options =
    { Generate.default_options with
      seed;
      blockage_fraction = blockages;
      blockage_count }
  in
  let spec = Spec.scaled scale (Spec.find name) in
  (fst (timed "benchgen.generate" (fun () -> Generate.generate ~options spec)))
    .design

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolation percentile, [p] in [0, 1]. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

(* Runs [make] [times] times; returns the last result and the median
   wall time. Generation is deterministic, so every repeat builds the same
   inputs. *)
let repeated_setup ~times make =
  let last = ref None and times_s = ref [] in
  for _ = 1 to times do
    let t0 = now () in
    let v = make () in
    times_s := (now () -. t0) :: !times_s;
    last := Some v
  done;
  (Option.get !last, median !times_s)

(* ------------------------------------------------------------------ *)
(* synth_sb12 and gp_fed: rounds of whole-design operations.            *)

(* One line per whole-design operation, so a run's figures can be traced
   back to the design that moved them. *)
let print_op name (r : legalized) o =
  Printf.printf
    "op %s: %d cells, %.3f s, %d iterations (max %d), %d relocated, disp \
     avg %.4f max %.2f sites, hpwl ratio %.5f%s\n%!"
    name o.cells o.wall_s r.solver.iterations_total r.solver.iterations
    r.alloc.relocated
    (o.disp_total /. float_of_int o.cells)
    o.disp_max (o.hpwl_out /. o.hpwl_in)
    (match o.failure with Some f -> ", FAILED " ^ f | None -> "")

(* One operation of synth_sb12: a cold legalization of a generated
   instance, whose generated global placement is the input. *)
let synth_op ~kernel_probe (d : Design.t) =
  match legalize ~kernel_probe d with
  | exception e -> raised 0.0 e
  | r, wall_s ->
    let failure = legalization_failure d.name d ~input:d.global r r.legal in
    let o = measured d ~input:d.global r.legal ~wall_s ~failure in
    print_op d.name r o;
    o

(* One operation of gp_fed: place the netlist, legalize the placer's
   output, refine the legal placement. *)
let gp_op (skeleton : Design.t) =
  let label = skeleton.name in
  match timed "gp.place" (fun () -> Gp.place skeleton) with
  | exception e -> raised 0.0 e
  | (gp, stats), t_gp -> (
    let d =
      Design.make ~blockages:skeleton.blockages ~name:skeleton.name
        ~chip:skeleton.chip ~cells:skeleton.cells ~global:gp
        ~nets:skeleton.nets ()
    in
    if !tracing then begin
      add "gp.place_s" t_gp;
      addi "gp.rounds" (List.length stats.rounds);
      List.iter
        (fun (r : Gp.round) ->
          addi "gp.cg_iterations" r.cg_iterations;
          add "gp.density_s" r.density_seconds)
        stats.rounds;
      add "gp.final_overflow" stats.final_overflow
    end;
    let handoff_overlaps = Perfcheck.overlapping_cells d gp in
    match legalize d with
    | exception e -> raised t_gp e
    | r, t_legal -> (
      match timed "refine.run" (fun () -> Refine.run d r.legal) with
      | exception e -> raised (t_gp +. t_legal) e
      | (refined, rs), t_refine ->
        if !tracing then begin
          add "refine.run_s" t_refine;
          addi "refine.moves" rs.moves;
          addi "refine.swaps" rs.swaps;
          addi "refine.reorders" rs.reorders;
          add "refine.hpwl_gain" (Refine.improvement rs)
        end;
        let wall_s = t_gp +. t_legal +. t_refine in
        let before = Perfcheck.hpwl d r.legal and after = Perfcheck.hpwl d refined in
        let failure =
          if handoff_overlaps = 0 then
            check_failure label "the global placement handed over has no overlap"
          else if
            rs.hpwl_after > rs.hpwl_before
            || after > before && not (Perfcheck.rel_close after before)
          then
            check_failure label
              (Printf.sprintf "Refine.run raised HPWL from %.17g to %.17g" before
                 after)
          else legalization_failure label d ~input:gp r refined
        in
        let o = measured d ~input:gp refined ~wall_s ~failure in
        print_op label r o;
        o))

(* Generator seed of the inputs that do not follow --seed (the generator's
   default seed, so these are the instances ROADMAP items 1 and 3 quote):
   - gp_fed's matrix_mult_1, which fails on every seed until the GP-fed
     convergence fault (perfbench/README.md) is mended; pinned so that the
     failed share is the same in every run;
   - the two cliff instances, whose work and quality depend on the seed
     far more than on the program: synth_sb12's blocked superblue12 (1,495
     MMSIM iterations on this seed, 2,744 to 12,275 on seeds 2 to 4) and
     gp_fed's des_perf_1 (4,567 to 7,345 iterations and a largest
     displacement of 286 to 529 sites on seeds 1 to 5). Pinned so that the
     workloads measure the program rather than the seed. *)
let pinned_seed = 1

let gp_designs = [ "fft_2"; "des_perf_1"; "matrix_mult_1" ]

(* ------------------------------------------------------------------ *)
(* eco_fft2: sessions fed streams of move batches.                      *)

(* Box-Muller on the benchmark's own generator. *)
let gaussian rng =
  let u1 = Float.max 1e-300 (Random.State.float rng 1.0)
  and u2 = Random.State.float rng 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* The next batch: 1% of the cells, each nudged by a Gaussian of 5 sites
   in x and 0.75 rows in y around its current global position. *)
let eco_batch rng (d : Design.t) =
  let n = Design.num_cells d in
  let chip = d.chip in
  let clamp lo hi v = Float.min hi (Float.max lo v) in
  List.init (max 1 (n / 100)) (fun _ ->
      let cell = Random.State.int rng n in
      let x =
        clamp 0.0 (float_of_int chip.num_sites)
          (d.global.xs.(cell) +. (5.0 *. gaussian rng))
      in
      let y =
        clamp 0.0
          (float_of_int (chip.num_rows - 1))
          (d.global.ys.(cell) +. (0.75 *. gaussian rng))
      in
      Edit.Move { cell; x; y })

(* A round sets up [eco_sessions] sessions in turn, each on its own fft_2
   instance drawn from the run's seed, and applies [eco_batches] batches
   to each before setting up the next. Batch cost depends on the instance
   (its blockage layout decides how the rows split into shards) and on its
   edit stream, so a round pools many short streams: with 4 streams of 50
   batches, the quartile spread of the p95 batch time across seeds was
   0.31, while a seed's figures repeated within a few percent. Every run
   is one whole round whatever --seconds is: 16 streams of 12 batches keep
   it near 26 s, where 16 of 20 took 45 s, and 10 of 20 spread
   disp_max_sites (set mostly by the instance) by 0.27 across seeds. *)
let eco_sessions = 16
let eco_batches = 12

type eco_stream = {
  index : int;
  design0 : Design.t;  (** the generated instance *)
  session : Incr.t;
  rng : Random.State.t;  (** the stream's edit generator *)
}

let eco_stream ~seed j d =
  { index = j;
    design0 = d;
    session = Incr.create ~config d;
    rng = Random.State.make [| seed; j; 0xec0 |] }

(* Applies one batch and checks the session it leaves. *)
let eco_apply session batch =
  match timed "incr.apply" (fun () -> Incr.apply session batch) with
  | exception e -> (raised 0.0 e, None)
  | st, wall_s ->
    let d = Incr.design session in
    let k = Incr.num_batches session in
    let failure =
      match Perfcheck.violations d (Incr.legal session) with
      | v :: _ ->
        check_failure "eco"
          (Printf.sprintf "batch %d: %s" k (Perfcheck.to_string v))
      | [] ->
        if st.converged then None
        else Some (Printf.sprintf "batch %d did not converge" k)
    in
    ( { cells = Design.num_cells d;
        wall_s;
        failure;
        disp_total = 0.0;
        disp_max = 0.0;
        hpwl_in = 0.0;
        hpwl_out = 0.0;
        final = None },
      Some st )

(* Applies the stream's [eco_batches] batches; [after stream stats] runs
   (untimed) after each. *)
let eco_run s ~after =
  List.init eco_batches (fun _ ->
      current_op := (s.index * eco_batches) + Incr.num_batches s.session;
      let o, st = eco_apply s.session (eco_batch s.rng (Incr.design s.session)) in
      after s st;
      o)

(* Cells whose session position [mine] differs from a cold legalization
   of the same design [d], the largest difference, and the cold time. *)
let cold_diff d (mine : Placement.t) =
  let cold, t = timed "flow.run_cold" (fun () -> Flow.run ~config d) in
  let diff = ref 0 and worst = ref 0.0 in
  for i = 0 to Design.num_cells d - 1 do
    let dx = Float.abs (mine.xs.(i) -. cold.legal.xs.(i))
    and dy = Float.abs (mine.ys.(i) -. cold.legal.ys.(i)) in
    if dx > 0.0 || dy > 0.0 then incr diff;
    worst := Float.max !worst (Float.max dx dy)
  done;
  (!diff, !worst, t)

(* A stream's current state as a final placement: displacement and HPWL
   from the session's current global placement, checked against the
   program's own numbers. *)
let eco_state s =
  let d = Incr.design s.session and legal = Incr.legal s.session in
  let failure = check_final "eco" d ~input:d.global legal in
  measured d ~input:d.global legal ~wall_s:0.0 ~failure

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)

let print_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_float v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct attempted failed body

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      else scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.0

let op_seconds ops = List.fold_left (fun a o -> a +. o.wall_s) 0.0 ops

let count_failed ops =
  List.length (List.filter (fun o -> o.failure <> None) ops)

let report_failures ops =
  List.iter
    (fun o ->
      match o.failure with
      | Some f -> Printf.printf "failed operation: %s\n" f
      | None -> ())
    ops

(* End-to-end metrics of a run: [ops] are its timed operations, [finals]
   the final placements its quality metrics are taken on. Throughput
   counts the cells of successful operations over the time of all of
   them. Each final placement weighs equally in disp_max_sites (the mean of
   the placements' largest displacements, steadier across seeds than one
   extreme cell) and in hpwl_ratio. *)
let run_metrics ~setup_s ~finals ops =
  let sum f l = List.fold_left (fun a o -> a +. f o) 0.0 l in
  let ok = List.filter (fun o -> o.failure = None) ops in
  let ms = List.map (fun o -> 1000.0 *. o.wall_s) ops in
  let n = float_of_int (List.length finals) in
  [ ("setup_s", "s", setup_s);
    ("cells_per_s", "cells/s", sum (fun o -> float_of_int o.cells) ok /. op_seconds ops);
    ("batch_ms_p50", "ms", percentile 0.5 ms);
    ("batch_ms_p90", "ms", percentile 0.9 ms);
    ("peak_rss_mb", "MB", peak_rss_mb ());
    ( "disp_avg_sites",
      "sites",
      sum (fun o -> o.disp_total) finals /. sum (fun o -> float_of_int o.cells) finals );
    ("disp_max_sites", "sites", sum (fun o -> o.disp_max) finals /. n);
    ("hpwl_ratio", "ratio", sum (fun o -> o.hpwl_out /. o.hpwl_in) finals /. n) ]

let finish_trace ~workload ~seed ~untraced ~traced =
  add "trace.overhead_pct" (100.0 *. ((traced /. untraced) -. 1.0));
  Printf.printf "trace overhead: %+.2f%% (traced round %.3f s vs untraced %.3f s)\n"
    (get "trace.overhead_pct") traced untraced;
  let dir = Filename.concat ".bench_build" "perfbench" in
  (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace_%s_%d.json" workload seed) in
  write_spans path;
  Printf.printf "spans written to %s\n" path;
  List.map (fun (name, unit) -> (name, unit, get name)) layer_metrics

(* Runs [round] until [seconds] have passed (at least once). *)
let rounds ~seconds round =
  let t0 = now () in
  let rec go acc =
    let acc = acc @ round () in
    if now () -. t0 < seconds then go acc else acc
  in
  go []

let same_placements a b =
  List.for_all2
    (fun x y ->
      match (x.final, y.final) with
      | Some p, Some q -> p.Placement.xs = q.Placement.xs && p.ys = q.ys
      | None, None -> true
      | _ -> false)
    a b

(* Whole-design workloads share one loop: set up, then either timed
   rounds or an untraced + traced pair of rounds. *)
let run_design_workload ~workload ~seed ~seconds ~trace ~setup_times ~setup
    ~round =
  tracing := trace;
  let inputs, setup_s = repeated_setup ~times:setup_times setup in
  tracing := false;
  add "benchgen.generate_s" setup_s;
  if not trace then begin
    let ops = rounds ~seconds (fun () -> round inputs) in
    report_failures ops;
    let ok = List.filter (fun o -> o.failure = None) ops in
    print_result ~attempted:(List.length ops) ~failed:(count_failed ops)
      (run_metrics ~setup_s ~finals:ok ops)
  end
  else begin
    let plain = round inputs in
    tracing := true;
    let traced = round inputs in
    tracing := false;
    (* per-design ratios are reported as means over the round *)
    let n = float_of_int (List.length traced) in
    List.iter
      (fun k -> Hashtbl.replace layer k (get k /. n))
      [ "gp.final_overflow"; "refine.hpwl_gain" ];
    if not (same_placements plain traced) then begin
      correct := false;
      Printf.eprintf "CHECK FAILED: traced stages differ from Flow.run\n%!"
    end;
    let ops = plain @ traced in
    report_failures ops;
    let metrics =
      finish_trace ~workload ~seed ~untraced:(op_seconds plain)
        ~traced:(op_seconds traced)
    in
    print_result ~attempted:(List.length ops) ~failed:(count_failed ops) metrics
  end

let with_op i f =
  current_op := i;
  f ()

let synth ~seed =
  let setup () =
    [ generate ~seed ~scale:0.1 "superblue12";
      generate ~seed:pinned_seed ~scale:0.02 ~blockages:0.15 "superblue12" ]
  in
  let round designs =
    List.mapi
      (fun i d -> with_op i (fun () -> synth_op ~kernel_probe:(i = 0) d))
      designs
  in
  (setup, round)

let gp_fed ~seed =
  let setup () =
    List.map
      (fun name ->
        let seed = if name = "fft_2" then seed else pinned_seed in
        generate ~seed ~scale:0.1 name)
      gp_designs
  in
  let round designs = List.mapi (fun i d -> with_op i (fun () -> gp_op d)) designs in
  (setup, round)

let eco ~workload ~seed ~seconds ~trace =
  let gen_times = ref [] and setup_times = ref [] in
  (* set-up of stream [j]: generation and session creation; distinct
     generator seeds across streams and runs *)
  let setup j =
    let t0 = now () in
    let d =
      generate ~seed:((seed * eco_sessions) + j) ~scale:0.3 ~blockages:0.15
        ~blockage_count:32 "fft_2"
    in
    let t1 = now () in
    let s = eco_stream ~seed j d in
    gen_times := (t1 -. t0) :: !gen_times;
    setup_times := (now () -. t0) :: !setup_times;
    s
  in
  let no_hook _ _ = () in
  if not trace then begin
    let t0 = now () in
    let round r =
      List.split
        (List.init eco_sessions (fun j ->
             let s = setup ((r * eco_sessions) + j) in
             let ops = eco_run s ~after:no_hook in
             (ops, eco_state s)))
    in
    let ops, states = round 0 in
    let rec more r acc =
      if now () -. t0 >= seconds then acc
      else more (r + 1) (acc @ List.concat (fst (round r)))
    in
    let ops = more 1 (List.concat ops) in
    let ms = List.map (fun o -> 1000.0 *. o.wall_s) ops in
    Printf.printf
      "batch latency over %d batches: p50 %.2f p90 %.2f p95 %.2f p99 %.2f ms\n"
      (List.length ms) (percentile 0.5 ms) (percentile 0.9 ms)
      (percentile 0.95 ms) (percentile 0.99 ms);
    report_failures (ops @ states);
    (* every batch re-legalizes its whole session, so cells/s counts the
       session's cells once per batch; displacement and HPWL are taken on
       the first round's sessions after their last batch, so they do not
       depend on how many rounds a run manages *)
    print_result ~attempted:(List.length ops) ~failed:(count_failed ops)
      (run_metrics ~setup_s:(median !setup_times) ~finals:states ops)
  end
  else begin
    let after _ st =
      Option.iter
        (fun (st : Incr.stats) ->
          addi "incr.dirty_shards" st.dirty_shards;
          addi "incr.cache_hits" st.cache_hits;
          addi "incr.shards" st.shards;
          addi "incr.solve_iterations" st.solve_iterations;
          addi "solver.iterations_total" st.solve_iterations;
          keep_max "solver.iterations_max" (float_of_int st.max_iterations))
        st
    in
    (* each stream runs untraced, then again traced on a fresh session
       over the same instance and batches *)
    let runs =
      List.init eco_sessions (fun j ->
          tracing := true;
          let s = setup j in
          tracing := false;
          let plain = eco_run s ~after:no_hook in
          let fresh = eco_stream ~seed j s.design0 in
          tracing := true;
          let traced = eco_run fresh ~after in
          tracing := false;
          let a = Incr.legal s.session and b = Incr.legal fresh.session in
          if not (a.xs = b.xs && a.ys = b.ys) then begin
            correct := false;
            Printf.eprintf "CHECK FAILED: traced session %d differs from untraced\n%!" j
          end;
          (plain, traced, (j, Incr.design fresh.session, b)))
    in
    (* the cold comparisons run after the timed batches *)
    tracing := true;
    let colds =
      List.map
        (fun (_, _, (j, d, mine)) ->
          let diff, worst, t = cold_diff d mine in
          Printf.printf
            "checkpoint session %d batch %d: %d cells differ from a cold \
             re-legalization (max %g sites); cold flow %.3f s\n"
            j eco_batches diff worst t;
          addi "incr.cold_diff_cells" diff;
          t)
        runs
    in
    tracing := false;
    let plain = List.concat_map (fun (p, _, _) -> p) runs
    and traced = List.concat_map (fun (_, t, _) -> t) runs in
    let nb = float_of_int (List.length traced) in
    Hashtbl.replace layer "incr.cache_hit_ratio"
      (get "incr.cache_hits" /. Float.max 1.0 (get "incr.shards"));
    Hashtbl.replace layer "incr.dirty_shards" (get "incr.dirty_shards" /. nb);
    Hashtbl.replace layer "incr.solve_iterations"
      (get "incr.solve_iterations" /. nb);
    add "incr.cold_flow_s" (median colds);
    add "benchgen.generate_s" (median !gen_times);
    let ops = plain @ traced in
    report_failures ops;
    let metrics =
      finish_trace ~workload ~seed ~untraced:(op_seconds plain)
        ~traced:(op_seconds traced)
    in
    print_result ~attempted:(List.length ops) ~failed:(count_failed ops) metrics
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME synth_sb12 | gp_fed | eco_fft2");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let workload = !workload in
  match workload with
  (* setup_s is the median of several set-ups: 3 on synth_sb12, where one
     takes about 5 s; 7 on gp_fed, where one takes about 0.3 s and a
     median of 3 spread by 0.41 (quartiles over median) across runs *)
  | "synth_sb12" ->
    let setup, round = synth ~seed in
    run_design_workload ~workload ~seed ~seconds ~trace ~setup_times:3 ~setup
      ~round
  | "gp_fed" ->
    let setup, round = gp_fed ~seed in
    run_design_workload ~workload ~seed ~seconds ~trace ~setup_times:7 ~setup
      ~round
  | "eco_fft2" -> eco ~workload ~seed ~seconds ~trace
  | w ->
    Printf.eprintf "unknown workload %S\n" w;
    exit 2
