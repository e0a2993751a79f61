(** Compatibility shim. The engine has a single production stepper
    now, built from the runtime configuration by
    {!Resim_core.Engine.create}; there is nothing left to select or
    install. This module stays only because the benchmark helper
    ([perfbench/perfbench.ml], linked by [perfbench/dune]) still calls
    it. *)

type mode = Auto

val install : ?mode:mode -> Resim_core.Engine.t -> bool
(** Always [true]: every engine already runs the production stepper. *)

val instrument : mode -> Resim_core.Engine.t -> unit
(** A no-op [instrument] hook. *)
