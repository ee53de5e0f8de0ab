(* Never-raises checks for decoders at a trust boundary: a decoder fed a
   byte-mutated or truncated copy of a valid encoding must return [Ok] or
   [Error], never raise. Shared by the wire, topology-JSON, pcap, P4
   source and HTTP request properties. *)

module Bitstring = Bitutil.Bitstring
module Mutate = Fuzz.Mutate

(* The mutator sees an encoding as a run of byte fields, so its boundary
   and dictionary moves land 0, out-of-range and [dict] values on length,
   tag and width bytes. *)
let byte_layout ~dict nbytes =
  {
    Mutate.fields =
      Array.init nbytes (fun i ->
          {
            Mutate.fl_header = "msg";
            fl_field = string_of_int i;
            fl_off = 8 * i;
            fl_width = 8;
          });
    total_bits = 8 * nbytes;
    dict;
  }

let binary_dict = [| 0L; 1L; 64L; 65L; 255L |]

(* [variants ~dict prng ~cut encoded]: one mutated and one truncated copy
   of [encoded] (the first [cut mod (length + 1)] bytes). *)
let variants ?(dict = binary_dict) prng ~cut encoded =
  let nbytes = String.length encoded in
  let mutated =
    Bitstring.to_string
      (Mutate.mutate (byte_layout ~dict nbytes) prng (Bitstring.of_string encoded))
  in
  [ mutated; String.sub encoded 0 ((cut land max_int) mod (nbytes + 1)) ]

(* [total ~dict prng ~cut decode encoded] runs [decode] over both
   [variants]; true when both return, failing the property with the
   raised exception otherwise. *)
let total ?dict prng ~cut decode encoded =
  List.for_all
    (fun m ->
      match decode m with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e))
    (variants ?dict prng ~cut encoded)
