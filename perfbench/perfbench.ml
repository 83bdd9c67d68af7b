(* The repository benchmark.  See README.md in this directory.

     perfbench --workload tune-paper|tune-deep|serve-mix --seed N
               --seconds S --trace 0|1

   Prints an environment stamp, every metric by name with its unit, and as
   its last line one JSON object {correct, attempted, failed, metrics}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones from the benchmark's own spans.  The exit code is
   non-zero when any correctness check fails. *)

open Common

let usage =
  "usage: perfbench --workload tune-paper|tune-deep|serve-mix --seed N \
   --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> go { a with seed } rest
      | None -> die ("bad --seed " ^ s))
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 -> go { a with seconds } rest
      | _ -> die ("bad --seconds " ^ s))
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | arg :: _ -> die ("unexpected argument " ^ arg)
  in
  go { workload = ""; seed = 1; seconds = 10.0; trace = false } argv

let out_dir = Filename.concat "perfbench" "out"

let write_file name doc =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  path

(* Where and how a result was measured. *)
let stamp a =
  let num = Json.num_of_int in
  Json.Obj
    [ ("workload", Json.Str a.workload);
      ("seed", num a.seed);
      ("seconds", Json.Num a.seconds);
      ("trace", Json.Bool a.trace);
      ("nproc", num (Domain.recommended_domain_count ()));
      ("jobs", num jobs);
      ("effective_jobs", num (Mcf_util.Pool.effective_jobs ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "rev",
        Json.Str
          (if Sys.file_exists ".git" then Mcf_obs.History.current_rev ()
           else "unknown") ) ]

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value, unit_) ->
         (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
       metrics)

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let rng = Rng.create a.seed in
  let run =
    match a.workload with
    | "tune-paper" -> Tunes.run ~kind:Tunes.Paper
    | "tune-deep" -> Tunes.run ~kind:Tunes.Deep
    | "serve-mix" -> Serve_mix.run
    | w -> die ("unknown workload " ^ w)
  in
  let stamp = stamp a in
  Printf.printf "stamp %s\n%!" (Json.to_string stamp);
  let o = run ~rng:(Rng.split rng) ~seconds:a.seconds ~trace:a.trace in
  Checks.run (Rng.split rng);
  let failed = o.failed + !mismatches in
  let base = Printf.sprintf "%s-seed%d-trace%d" a.workload a.seed (Bool.to_int a.trace) in
  let self =
    match o.spans with
    | None -> []
    | Some spans ->
      let path = write_file (base ^ ".trace.json") (Spans.to_chrome spans) in
      Printf.printf "spans: %s\nself time per span (mean per span, total):\n" path;
      let rows = Spans.self_times spans in
      List.iter
        (fun (name, n, total) ->
          Printf.printf "  %-26s %6d x %10.6f s  %10.4f s\n" name n
            (total /. float_of_int n) total)
        rows;
      rows
  in
  List.iter
    (fun (name, value, unit_) -> Printf.printf "  %-30s %16.9g %s\n" name value unit_)
    o.metrics;
  let result =
    Json.Obj
      [ ("correct", Json.Bool (!mismatches = 0));
        ("attempted", Json.num_of_int o.attempted);
        ("failed", Json.num_of_int failed);
        ("metrics", metrics_json o.metrics) ]
  in
  ignore
    (write_file (base ^ ".json")
       (Json.Obj
          [ ("stamp", stamp);
            ("result", result);
            ( "self_times",
              Json.Obj
                (List.map
                   (fun (name, n, total) ->
                     (name, Json.Obj [ ("count", Json.num_of_int n); ("total_s", Json.Num total) ]))
                   self) ) ]));
  print_endline (Json.to_string result);
  exit (if !mismatches = 0 then 0 else 1)
