(* The one versioned, sectioned, FNV-checked container. Machine
   snapshots and the AOT depot are schemas over it; see the interface
   for the layout. *)

exception Corrupt of string
exception Malformed of { section : string; reason : string }

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let malformed section fmt =
  Printf.ksprintf (fun reason -> raise (Malformed { section; reason })) fmt

let in_section section f =
  try f () with
  | Corrupt reason | Invalid_argument reason ->
    raise (Malformed { section; reason })

let fnv_basis = 0x811c9dc5

let fnv_add h s =
  let h = ref h in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFF_FFFF)
    s;
  !h

let fnv1a32 s = fnv_add fnv_basis s

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 1024
  let u64 b v = Buffer.add_int64_le b v
  let int b v = u64 b (Int64.of_int v)
  let bool b v = int b (if v then 1 else 0)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a

  let i64_array b a =
    int b (Array.length a);
    Array.iter (u64 b) a

  let list b elt l =
    int b (List.length l);
    List.iter (elt b) l

  let contents = Buffer.contents
end

module Dec = struct
  type t = { src : string; mutable pos : int; name : string }

  let of_string ?(name = "payload") src = { src; pos = 0; name }

  let u64 d =
    if d.pos + 8 > String.length d.src then
      corrupt "%s: truncated at byte %d" d.name d.pos;
    let v = String.get_int64_le d.src d.pos in
    d.pos <- d.pos + 8;
    v

  let int d = Int64.to_int (u64 d)
  let bool d = int d <> 0

  let string d =
    let n = int d in
    if n < 0 || d.pos + n > String.length d.src then
      corrupt "%s: bad string length %d at byte %d" d.name n d.pos;
    let s = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    s

  let array d elt =
    let n = int d in
    if n < 0 || d.pos + (8 * n) > String.length d.src then
      corrupt "%s: bad array length %d at byte %d" d.name n d.pos;
    Array.init n (fun _ -> elt d)

  let int_array d = array d int
  let i64_array d = array d u64

  let list d elt =
    let n = int d in
    if n < 0 then
      corrupt "%s: negative list length %d at byte %d" d.name n d.pos;
    List.init n (fun _ -> elt d)

  let finished d = d.pos = String.length d.src

  let whole ?name src f =
    let d = of_string ?name src in
    let v = f d in
    if not (finished d) then corrupt "%s: trailing bytes" d.name;
    v
end

(* ---- the section table ---- *)

(* A paged payload is the concatenation of its pages; the strings are
   shared, never copied, so a page array must not be mutated once
   added. *)
type payload = Flat of string | Paged of string array

type t = { mutable sections : (string * payload) list (* reversed *) }

let create () = { sections = [] }
let copy t = { sections = t.sections }
let mem t name = List.mem_assoc name t.sections

let add_payload t name payload =
  if mem t name then
    invalid_arg (Printf.sprintf "Container.add: duplicate section %s" name);
  t.sections <- (name, payload) :: t.sections

let add t name payload = add_payload t name (Flat payload)
let add_pages t name pages = add_payload t name (Paged pages)

let parts = function Flat s -> [| s |] | Paged pages -> pages
let parts_length = Array.fold_left (fun n p -> n + String.length p) 0

let flat = function
  | Flat s -> s
  | Paged pages -> String.concat "" (Array.to_list pages)

let split ~page_bytes s =
  let len = String.length s in
  Array.init
    ((len + page_bytes - 1) / page_bytes)
    (fun i ->
      let off = i * page_bytes in
      String.sub s off (min page_bytes (len - off)))

let find_payload t name =
  match List.assoc_opt name t.sections with
  | Some p -> p
  | None -> corrupt "missing section %s" name

let find_opt t name = Option.map flat (List.assoc_opt name t.sections)
let find t name = flat (find_payload t name)

let find_pages t name ~page_bytes =
  match find_payload t name with
  | Paged pages -> pages
  | Flat s -> split ~page_bytes s

let length t name = parts_length (parts (find_payload t name))

let names t = List.rev_map fst t.sections

(* ---- framing ---- *)

let header_bytes = 24

(* name length + payload length + payload checksum: the least one
   section can occupy in the body *)
let min_section_bytes = 24

let encode ~magic ~version t =
  let body = Enc.create () in
  let ordered = List.rev t.sections in
  Enc.int body (List.length ordered);
  List.iter
    (fun (name, payload) ->
      Enc.string body name;
      (* a paged payload is written page by page: same bytes as its
         flattened string, without building it *)
      let parts = parts payload in
      Enc.int body (parts_length parts);
      Array.iter (Buffer.add_string body) parts;
      Enc.int body (Array.fold_left fnv_add fnv_basis parts))
    ordered;
  let body = Enc.contents body in
  let out = Buffer.create (String.length body + header_bytes) in
  Buffer.add_string out magic;
  Buffer.add_int64_le out (Int64.of_int version);
  Buffer.add_int64_le out (Int64.of_int (fnv1a32 body));
  Buffer.add_string out body;
  Buffer.contents out

let decode ?(paged = []) ~magic ~version s =
  let len = String.length s in
  if len < header_bytes then
    malformed "container" "shorter than its header (%d bytes)" len;
  if String.sub s 0 8 <> magic then malformed "container" "bad magic";
  let stored_version = Int64.to_int (String.get_int64_le s 8) in
  if stored_version <> version then
    malformed "container" "format version %d, expected %d" stored_version
      version;
  let sum = Int64.to_int (String.get_int64_le s 16) in
  let body = String.sub s header_bytes (len - header_bytes) in
  let d = Dec.of_string ~name:"body" body in
  let n = in_section "container" (fun () -> Dec.int d) in
  if n < 0 || n > (String.length body - 8) / min_section_bytes then
    malformed "container" "bad section count %d" n;
  let t = create () in
  for _ = 1 to n do
    let name = in_section "container" (fun () -> Dec.string d) in
    in_section name (fun () ->
        let payload = Dec.string d in
        let stored = Dec.int d in
        let computed = fnv1a32 payload in
        if stored <> computed then
          corrupt "section checksum mismatch (stored %#x, computed %#x)"
            stored computed;
        (* raises on a duplicate name, blamed on that name *)
        match List.assoc_opt name paged with
        | Some page_bytes -> add_pages t name (split ~page_bytes payload)
        | None -> add t name payload)
  done;
  if not (Dec.finished d) then
    malformed "container" "trailing bytes after last section";
  (* The whole-body checksum runs last so damage inside a section is
     attributed to that section first; what reaches this check is
     framing damage the per-section sums cannot see (a flipped name
     byte that still parses, a rewritten length that re-frames
     cleanly). *)
  let actual = fnv1a32 body in
  if sum <> actual then
    malformed "container" "body checksum mismatch (stored %#x, computed %#x)"
      sum actual;
  t
