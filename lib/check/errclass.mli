(** Static half of the differential oracle's error-class mapping:
    which static diagnostic codes witness which run-time error classes
    (the vocabulary of [Rtcheck.Heap.error_class]). *)

val of_code : string -> string list
(** The run-time classes a kept diagnostic with this code witnesses
    (empty for codes with no run-time counterpart). *)

val witnessed : file:string -> cls:string -> Cfront.Diag.t list -> bool
(** Does any diagnostic in the list witness class [cls] in [file]? *)
