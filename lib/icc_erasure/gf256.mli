(** GF(2^8) arithmetic (AES polynomial 0x11b). Values are ints in [\[0,255]]. *)

val order : int
val check : int -> unit
val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
val mul_add_into : int -> string -> int -> Bytes.t -> int -> int -> unit
(** [mul_add_into c src src_off dst dst_off len] adds [c * src[src_off+i]]
    into [dst[dst_off+i]] for [i < len], through a 64 KiB product table:
    the bulk kernel of Reed–Solomon encoding and decoding. *)

val inv : int -> int
val div : int -> int -> int
val pow : int -> int -> int
