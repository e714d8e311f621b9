module Backend = Backend

type engine =
  | Bulk_synchronous
  | Overlapped
  | Temporal_blocked of { depth : int }

module Config = struct
  type t = {
    backend : Backend.t;
    engine : engine;
    pool : Msc_util.Domain_pool.t;
  }

  let default =
    {
      backend = Backend.Interp;
      engine = Overlapped;
      pool = Msc_util.Domain_pool.sequential;
    }

  let make ?(backend = Backend.Interp) ?(engine = Overlapped)
      ?(pool = Msc_util.Domain_pool.sequential) () =
    { backend; engine; pool }
end
