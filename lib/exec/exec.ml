module Backend = Backend

module Config = struct
  type t = {
    backend : Backend.t;
    depth : int;
    pool : Msc_util.Domain_pool.t;
  }

  let default =
    {
      backend = Backend.Interp;
      depth = 1;
      pool = Msc_util.Domain_pool.sequential;
    }

  let make ?(backend = Backend.Interp) ?(depth = 1)
      ?(pool = Msc_util.Domain_pool.sequential) () =
    { backend; depth; pool }
end
