(* The traced run's registry: any backend with its inserts and queries
   recorded as [registry.insert] / [registry.query] spans.  Passed to the
   servers as [~backend] through [make_server] and [restore_server], so
   the join path, replica applies and restore rebuilds all go through it. *)

module Make (B : Nearby.Registry_intf.S) : Nearby.Registry_intf.S = struct
  include B

  let insert t ~peer ~routers = Tracer.span Registry_insert (fun () -> B.insert t ~peer ~routers)

  let insert_many t entries =
    Tracer.span ~items:(Array.length entries) Registry_insert (fun () -> B.insert_many t entries)

  let query t ~routers ~k ?exclude () =
    Tracer.span Registry_query (fun () -> B.query t ~routers ~k ?exclude ())

  let query_member t ~peer ~k = Tracer.span Registry_query (fun () -> B.query_member t ~peer ~k)

  let query_many t ~queries ~k ?exclude () =
    Tracer.span ~items:(Array.length queries) Registry_query (fun () ->
        B.query_many t ~queries ~k ?exclude ())
end
