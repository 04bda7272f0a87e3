(** A small regular-expression engine for grep-style content queries.

    Built from scratch: patterns parse to an AST and compile to a
    Thompson NFA, and matching runs a lazy DFA over that NFA — each DFA
    state is a set of NFA states, built the first time an input reaches
    it.  Compiling is linear in the pattern (each byte adds at most two
    NFA states), matching is linear in the input with no backtracking
    blow-up, and a DFA spends at most {!dfa_budget} bytes on its states: an
    input that needs a state past the budget is matched by simulating
    the NFA directly.

    Supported syntax: literal characters, [.] any, [*] [+] [?]
    repetition, [[abc]] / [[a-z]] / [[^...]] classes, [|] alternation,
    [( )] grouping, [\\] escapes, and [^] / [$] anchors at the pattern
    ends.  A final [$] preceded by an odd number of backslashes is a
    literal dollar sign. *)

type t
(** A compiled pattern.  It holds two lazily built DFAs (one for
    unanchored search, one for anchored matching), which matching
    mutates, so a value must never be shared between domains. *)

exception Parse_error of string

val compile : string -> t
(** Raises {!Parse_error} on malformed patterns.  Each domain caches up
    to 16 successful compiles of small patterns (at most 256 bytes and
    1024 NFA states), so a repeat returns the same value, with the DFA
    states earlier matches built; the value belongs to the calling
    domain.  Other patterns compile afresh on every call. *)

val matches : t -> string -> bool
(** Substring search semantics (like grep), except where the pattern
    is anchored. *)

val matches_exact : t -> string -> bool
(** Whole-string semantics, ignoring anchors. *)

val source : t -> string
(** The original pattern text. *)

val dfa_budget : int
(** The most bytes one DFA spends on states.  A state costs its
    256-entry transition row (2 KB on a 64-bit host), a byte per NFA
    state, and a few words of bookkeeping. *)

val dfa_states : t -> int
(** DFA states built so far, over both DFAs. *)

val dfa_bytes : t -> int
(** Bytes those states are charged against {!dfa_budget}, over both
    DFAs. *)

(** Matching by direct simulation of the NFA, one state set per input
    byte.  This is the overflow path of {!matches} and
    {!matches_exact}, and the reference the tests compare them
    against. *)
module Nfa : sig
  val matches : t -> string -> bool
  val matches_exact : t -> string -> bool
end
