(** The serving path, peeled layer by layer.  The same queries run three
    ways in this process: through a [Client] over a Unix socket to a
    [Wire.Server], through [Serve.submit]/[collect] in-process, and
    through [Engine.stream] on a fresh reader.  [wire.self] is the first
    minus the second, [serve.self] the second minus the third.  [Serve]
    runs one worker domain and one client drives it, closed loop. *)

open Common
module Serve = Dolx_serve.Serve
module Server = Dolx_wire.Server
module Client = Dolx_wire.Client

let tenant = "peel"

(** Wait for every reader pin to be released; returns the pins left. *)
let settle_pins srv =
  let deadline = now () +. 5.0 in
  let rec go () =
    let p = Serve.pinned_readers srv in
    if p = 0 || now () > deadline then p
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(** Median over ops of [minuend - subtrahend] span durations. *)
let peel_diff minuend subtrahend =
  let a = by_op minuend and b = by_op subtrahend in
  let out = samples () in
  Hashtbl.iter (fun op x -> match Hashtbl.find_opt b op with Some y -> push out (x -. y) | None -> ()) a;
  if out.n = 0 then 0.0 else p50 out

type result = {
  times : (string * float) list;  (** raw, at this machine's speed *)
  counts : (string * float) list;
  attempted : int;  (** legs run, three per peeled query *)
  failed : int;  (** legs that raised, plus reader pins left behind *)
  disagree : int;  (** peeled queries with a leg whose answer differs from [Engine.query]'s *)
}

(** Peel every [every]-th of [queries] on [sys].  Each is first run once
    untimed through [Engine.query], whose answer every leg must repeat,
    so all three legs see the same warm run index.  Records
    spans, so call it with tracing on and no other span open. *)
let run sys (queries : Query_mix.entry array) ~every =
  ensure_state_dir ();
  let sock = Filename.concat state_dir (Printf.sprintf "peel-%d.sock" (Unix.getpid ())) in
  let srv = Serve.create ~jobs:1 () in
  Serve.add_tenant srv tenant (Serve.Mem (sys.store, sys.index));
  let attempted = ref 0 and failed = ref 0 and disagree = ref 0 and peeled = ref 0 in
  let leg name ~op f =
    incr attempted;
    match span name ~op f with
    | a -> Some a
    | exception ex ->
        incr failed;
        log "%s of query %d failed: %s" name op (Printexc.to_string ex);
        None
  in
  let p0 = probe () in
  let leaked, stats =
    Fun.protect
      ~finally:(fun () -> Serve.shutdown srv)
      (fun () ->
        let server = Server.start srv ~path:sock in
        Fun.protect
          ~finally:(fun () -> Server.stop server)
          (fun () ->
            let conn = Client.connect ~retry_for:5.0 sock in
            Fun.protect
              ~finally:(fun () -> Client.close conn)
              (fun () ->
                Array.iteri
                  (fun i (e : Query_mix.entry) ->
                    if i mod every = 0 then begin
                      incr peeled;
                      let sem = semantics e.semantics and xpath = e.xpath in
                      let want =
                        Store.with_reader sys.store (fun r -> (Engine.query r sys.index xpath sem).Engine.answers)
                      in
                      let a =
                        leg "peel.wire" ~op:i (fun () -> Client.collect (Client.submit conn ~tenant xpath sem))
                      in
                      let b = leg "peel.serve" ~op:i (fun () -> Serve.collect (Serve.submit srv ~tenant xpath sem)) in
                      let c =
                        leg "peel.stream" ~op:i (fun () ->
                            Store.with_reader sys.store (fun r ->
                                span "nok.stream" ~op:i (fun () ->
                                    Engine.stream_collect (Engine.stream r sys.index (Xpath.parse xpath) sem))))
                      in
                      match (a, b, c) with
                      | Some a, Some b, Some c -> if a <> want || b <> want || c <> want then incr disagree
                      | _ -> ()
                    end)
                  queries;
                (settle_pins srv, Serve.stats srv))))
  in
  let w = diff p0 (probe ()) in
  if !disagree > 0 then log "peel: %d queries disagree with Engine.query" !disagree;
  log "peel: %d queries three ways, %d legs failed, %d reader pins left" !peeled !failed leaked;
  {
    times =
      [
        ("wire.self_p50_ms", peel_diff "peel.wire" "peel.serve");
        ("serve.self_p50_ms", peel_diff "peel.serve" "peel.stream");
        ("nok.stream_p50_ms", p50 (self_ms "nok.stream"));
      ];
    counts =
      [
        ("wire.frames_per_query", ratio (w.d "wire.frames_in" + w.d "wire.frames_out") !peeled);
        ("serve.peak_buffered", float_of_int stats.Serve.peak_buffered);
        ("serve.shed", float_of_int stats.Serve.shed);
      ];
    attempted = !attempted;
    failed = !failed + leaked;
    disagree = !disagree;
  }
