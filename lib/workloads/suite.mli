(** Workload registry. *)

(** The paper's four benchmarks at the given problem size. [iters] applies
    to the iterative kernels (TOMCATV, SWIM). *)
val spec_four : ?n:int -> ?iters:int -> unit -> Workload.t list

(** SPEC four plus the extra kernels ({!Extras}). *)
val all : ?n:int -> ?iters:int -> unit -> Workload.t list

(** [find name] builds only the named workload (any name {!all} lists).
    Raises [Invalid_argument] on an unknown name or a size the kernel
    rejects. *)
val find : ?n:int -> ?iters:int -> string -> Workload.t
