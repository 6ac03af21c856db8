(** {!Metrics} under its older name: a "trace" is a store written with
    empty label sets.  The alias stays because the end-to-end bench, kept
    frozen, reads counters through [Simkit.Trace.counter]; new code should
    say [Metrics]. *)

include module type of struct
  include Metrics
end
