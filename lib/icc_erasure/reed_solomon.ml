(* Systematic Reed–Solomon erasure coding over GF(2^8): k data fragments are
   extended to n total fragments, any k of which reconstruct the data.

   Encoding evaluates, per byte position, the degree-(k-1) polynomial that
   interpolates the k data bytes at points 1..k, producing parity at points
   k+1..n.  Fragments are column slices; fragment i (0-based) is the
   evaluation at point i+1.  Decoding inverts the Vandermonde submatrix of
   the k available points.  Both run a whole fragment row at a time through
   [Gf256.mul_add_into].

   Limits: n <= 255 (points must be distinct and nonzero in GF(256)). *)

type coded = {
  k : int; (* data fragments needed to reconstruct *)
  n : int; (* total fragments *)
  fragment_size : int;
  data_size : int; (* original byte length, for exact truncation *)
  fragments : string array; (* length n, each fragment_size bytes *)
}

let point_of_index i = i + 1 (* fragment i evaluates the polynomial at i+1 *)

(* The encoding matrix: n rows of a Vandermonde over points 1..n, transformed
   so the first k rows are the identity (systematic form): E = V * V_k^-1. *)
let encoding_matrix ~k ~n =
  let v =
    Matrix.vandermonde
      ~points:(Array.init n (fun i -> point_of_index i))
      ~cols:k
  in
  let top = Array.sub v 0 k in
  let top_inv = Matrix.invert top in
  Matrix.mul v top_inv

let fragment_size_of ~k data_size = max ((data_size + k - 1) / k) 1

(* Bytes of data fragment [j] actually present in a [data_size]-byte
   input; the rest of the fragment is zero padding. *)
let present ~fragment_size ~data_size j =
  max 0 (min fragment_size (data_size - (j * fragment_size)))

let encode ~k ~n (data : string) : coded =
  if not (k >= 1 && k <= n && n <= 255) then
    invalid_arg "Reed_solomon.encode: need 1 <= k <= n <= 255";
  let data_size = String.length data in
  let fragment_size = fragment_size_of ~k data_size in
  let present = present ~fragment_size ~data_size in
  let e = encoding_matrix ~k ~n in
  (* Rows 0..k-1 of [e] are the identity: those fragments are slices of
     the zero-padded data.  Parity row i accumulates e(i,j) * slice j. *)
  let fragments =
    Array.init n (fun i ->
        let buf = Bytes.make fragment_size '\000' in
        if i < k then begin
          let len = present i in
          if len > 0 then Bytes.blit_string data (i * fragment_size) buf 0 len
        end
        else
          for j = 0 to k - 1 do
            Gf256.mul_add_into e.(i).(j) data (j * fragment_size) buf 0
              (present j)
          done;
        Bytes.unsafe_to_string buf)
  in
  { k; n; fragment_size; data_size; fragments }

(* Reconstruct from any >= k of the n fragments, given as (index, bytes)
   pairs with 0-based indices.  Returns [None] on malformed input. *)
let decode ~k ~n ~data_size (available : (int * string) list) : string option =
  let available = List.sort_uniq (fun (i, _) (j, _) -> compare i j) available in
  let fragment_size = fragment_size_of ~k data_size in
  let usable =
    List.filter
      (fun (i, frag) ->
        i >= 0 && i < n && String.length frag = fragment_size)
      available
  in
  if List.length usable < k then None
  else
    let chosen = List.filteri (fun idx _ -> idx < k) usable in
    let e = encoding_matrix ~k ~n in
    let rows = Array.of_list (List.map (fun (i, _) -> e.(i)) chosen) in
    let frags = Array.of_list (List.map snd chosen) in
    match Matrix.invert rows with
    | exception Matrix.Singular -> None
    | inv ->
        (* Data fragment j is row j of inv applied to the chosen fragments;
           only its first [present j] bytes survive truncation. *)
        let out = Bytes.make data_size '\000' in
        for j = 0 to k - 1 do
          let len = present ~fragment_size ~data_size j in
          for r = 0 to k - 1 do
            Gf256.mul_add_into inv.(j).(r) frags.(r) 0 out (j * fragment_size) len
          done
        done;
        Some (Bytes.unsafe_to_string out)

(* Deterministic re-encoding check used by the reliable-broadcast protocol:
   encode the reconstructed data again and compare fragments. *)
let reencode_matches ~k ~n ~data (fragments : (int * string) list) =
  let coded = encode ~k ~n data in
  List.for_all
    (fun (i, frag) ->
      i >= 0 && i < n && String.equal coded.fragments.(i) frag)
    fragments
