(** The incremental checking daemon's wire protocol ([olclint -server]).

    Newline-delimited JSON over stdin/stdout: one request object per
    line in, one response object per line out, in order.  Requests:

    {v
    {"op":"check","files":["a.c", {"name":"b.c","text":"..."}],
     "flags":["+loopexec"],"jobs":4}
    {"op":"invalidate"}                  // drop everything
    {"op":"invalidate","files":["a.c"]}  // drop one file's summaries
    {"op":"stats"}
    {"op":"shutdown"}
    v}

    A [check] entry that is a plain string names a file read from disk;
    an object with [name]/[text] is an in-memory document (an editor
    buffer); a path whose bytes are unchanged is answered with the
    service's stored text ({!Service.doc_of_file}), after one [stat]
    once its stamp is trusted; a path that cannot be read, or names
    anything but a regular file, answers [ok:false] with an error
    naming it.  [stats] adds the
    process's [heap_words] and [top_heap_words] to {!Service.stats},
    [null] until the first major collection has completed, and where
    the last answered [check] spent its time, in microseconds:
    [last_read_us] reading its documents, [last_update_us] in
    {!Service.check}, [last_encode_us] encoding the response (with
    {!serve}, writing it out as text included), next to
    [last_doc_reads], the path-named documents whose bytes it read.
    Responses always carry ["op"] and ["ok"]; see
    docs/incremental.md for the full schema.  Malformed input yields an
    [ok:false] response and the server keeps serving — only [shutdown]
    (or end of input) ends the loop. *)

val handle : Service.t -> Telemetry.Json.t -> Telemetry.Json.t * bool
(** Process one request against the service; returns the response and
    whether the server should keep running ([false] after [shutdown]).
    Exposed separately from the channel loop so tests can drive the
    protocol without a process. *)

val serve :
  ?cache:string -> Service.t -> in_channel -> out_channel -> unit
(** The daemon loop: read NDJSON requests until [shutdown] or EOF.
    With [cache], load a persisted summary cache from that path at
    startup (ignored with a warning on stderr if invalid) and write the
    cache back on shutdown/EOF.  After flushing the answer to a cold
    check it runs one {!Gc.full_major}, so the build's temporaries are
    freed before the next request is read; a rebuilt check collected
    the environment it replaced before building ({!Service.check}). *)
