(* The traced run's own span recorder.  The benchmark opens a span around
   each call it makes into a layer's public function; spans are kept in
   memory and written out as Chrome trace_event JSON when the run ends.
   Tracing inside the program itself is not used. *)

type span = {
  id : int;
  parent : int option;
  trace : int;  (** One tune or one served request. *)
  lane : int;  (** The client thread that ran it. *)
  name : string;
  start : float;
  stop : float;
  inner : (string * float) list;
      (** Sub-phase totals the layer reported through its own [on_phase]
          hook.  Each is a sum of disjoint intervals inside this span. *)
}

type t = { lock : Mutex.t; mutable spans : span list; mutable next_id : int }

let create () = { lock = Mutex.create (); spans = []; next_id = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [span t ~trace name f] times [f id] as span [name]; [inner] is read
   after [f] returns, so [on_phase] callbacks inside [f] can fill it. *)
let span t ?parent ?(lane = 0) ?(inner = ref []) ~trace name f =
  let id =
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        id)
  in
  let start = Unix.gettimeofday () in
  let r = f id in
  let stop = Unix.gettimeofday () in
  let s = { id; parent; trace; lane; name; start; stop; inner = !inner } in
  locked t (fun () -> t.spans <- s :: t.spans);
  r

let spans t = locked t (fun () -> List.rev t.spans)

let duration s = s.stop -. s.start

(* Length of the union of [intervals]. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   that child spans cover, minus its reported sub-phase totals.  Summed
   per name, as (name, count, total self seconds) in first-seen order;
   each sub-phase gets its own row. *)
let self_times t =
  let all = spans t in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace children p
            ((s.start, s.stop)
            :: Option.value (Hashtbl.find_opt children p) ~default:[]))
        s.parent)
    all;
  let rows = Hashtbl.create 16 and order = ref [] in
  let add name dur =
    match Hashtbl.find_opt rows name with
    | Some (n, total) -> Hashtbl.replace rows name (n + 1, total +. dur)
    | None ->
      order := name :: !order;
      Hashtbl.replace rows name (1, dur)
  in
  List.iter
    (fun s ->
      let kids =
        List.map
          (fun (a, b) -> (Float.max a s.start, Float.min b s.stop))
          (Option.value (Hashtbl.find_opt children s.id) ~default:[])
      in
      let inner = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 s.inner in
      add s.name (duration s -. covered kids -. inner);
      List.iter (fun (name, d) -> add name d) s.inner)
    all;
  List.rev_map
    (fun name ->
      let n, total = Hashtbl.find rows name in
      (name, n, total))
    !order

let to_chrome t =
  let open Mcf_util.Json in
  let all = spans t in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  Obj
    [ ( "traceEvents",
        List
          (List.map
             (fun s ->
               Obj
                 [ ("name", Str s.name);
                   ("ph", Str "X");
                   ("ts", Num ((s.start -. t0) *. 1e6));
                   ("dur", Num (duration s *. 1e6));
                   ("pid", num_of_int 1);
                   ("tid", num_of_int (s.lane + 1));
                   ( "args",
                     Obj
                       ([ ("id", num_of_int s.id);
                          ("trace", num_of_int s.trace);
                          ( "parent",
                            match s.parent with
                            | Some p -> num_of_int p
                            | None -> Null ) ]
                       @ List.map (fun (n, d) -> (n ^ "_s", Num d)) s.inner)
                   ) ])
             all) ) ]
