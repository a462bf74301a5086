(** The versioned, sectioned, checksummed container behind machine
    snapshots and the AOT code depot.

    A container is an ordered list of named binary sections:

    {v
      bytes 0..7    magic (8 bytes, one per schema)
      bytes 8..15   u64 LE format version (one per schema)
      bytes 16..23  u64 LE FNV-1a-32 checksum of the body (low 32 bits)
      bytes 24..    body: u64 section count, then per section a
                    length-prefixed name, a length-prefixed payload,
                    and a u64 FNV-1a-32 checksum of the payload
    v}

    All integers are little-endian u64 ({!Enc}/{!Dec}); section order
    is preserved, so encode -> decode -> encode is byte-identical. A
    schema ([Repro_snapshot.Snapshot], [Repro_aotcache.Depot]) fixes
    the magic, the version and what each section's payload holds. *)

exception Corrupt of string
(** A payload that does not decode: raised by the {!Dec} primitives
    and by {!find}. *)

exception Malformed of { section : string; reason : string }
(** The one framing failure of {!decode}, and what {!in_section} turns
    a payload failure into. [section] names the innermost section being
    decoded when the damage surfaced — ["container"] when it lies
    outside any section (header, framing, the whole-body checksum). *)

val in_section : string -> (unit -> 'a) -> 'a
(** [in_section name f] runs a decoder for section [name]: a
    {!Corrupt} or [Invalid_argument] raised by [f] becomes
    {!Malformed} naming [name]. *)

val fnv1a32 : string -> int
(** FNV-1a, 32-bit: the body and section checksum. *)

(** {2 Primitive little-endian encoders} *)

module Enc : sig
  type t

  val create : unit -> t
  val u64 : t -> int64 -> unit
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val int_array : t -> int array -> unit
  val i64_array : t -> int64 array -> unit

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** A u64 count, then each element. *)

  val contents : t -> string
end

module Dec : sig
  type t

  val of_string : ?name:string -> string -> t
  (** [name] labels {!Corrupt} messages. *)

  val u64 : t -> int64
  val int : t -> int
  val bool : t -> bool
  val string : t -> string
  val int_array : t -> int array
  val i64_array : t -> int64 array

  val list : t -> (t -> 'a) -> 'a list
  (** The inverse of {!Enc.list}; a negative count raises {!Corrupt}. *)

  val finished : t -> bool
  (** All input consumed. *)

  val whole : ?name:string -> string -> (t -> 'a) -> 'a
  (** [whole ~name payload f] decodes all of [payload] with [f];
      bytes left over raise {!Corrupt}. *)
end

(** {2 The section table} *)

type t

val create : unit -> t

val copy : t -> t
(** A new table holding the same sections; adding to either leaves the
    other unchanged. Payloads are immutable and shared, not copied. *)

val add : t -> string -> string -> unit
(** Append section [name] with the given payload. Raises
    [Invalid_argument] on a duplicate name. *)

val add_pages : t -> string -> string array -> unit
(** Append section [name] whose payload is the concatenation of
    [pages]. The strings are shared, not copied, and the array must
    not be mutated afterwards. {!encode} writes the same bytes as for
    the flattened payload. *)

val find : t -> string -> string
(** Raises {!Corrupt} when the section is absent. A paged payload is
    flattened into a fresh string. *)

val find_pages : t -> string -> page_bytes:int -> string array
(** The pages of section [name]: the array stored by {!add_pages} (or
    by {!decode}'s [paged]) itself, or a flat payload split into
    [page_bytes] pieces, the last one shorter when the length is not a
    multiple. Do not mutate the result. Raises {!Corrupt} when the
    section is absent. *)

val length : t -> string -> int
(** Payload length in bytes, without flattening. Raises {!Corrupt}
    when the section is absent. *)

val find_opt : t -> string -> string option
val mem : t -> string -> bool
val names : t -> string list

(** {2 Framing} *)

val encode : magic:string -> version:int -> t -> string
(** Serialize under an 8-byte [magic] and a format [version]. *)

val decode :
  ?paged:(string * int) list -> magic:string -> version:int -> string -> t
(** Parse and validate magic, version, section count, every
    per-section checksum and then the whole-body checksum, so damage
    inside a section is blamed on that section. A duplicate section
    name, or a count that is negative or larger than the body can
    frame, is rejected. Raises {!Malformed} (and nothing else) on any
    failure, whatever the input bytes. [paged] names sections to hold
    as pages of the given size (see {!find_pages}). *)
