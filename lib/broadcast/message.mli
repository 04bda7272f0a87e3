(** Wire messages of the sequencer-based total-order broadcast. *)

type 'a t =
  | Request of { origin : int; req_id : int; payload : 'a }
      (** Member asks the sequencer to order a payload.  [req_id] is
          unique per origin so retries are deduplicated. *)
  | Ordered of {
      view : int;  (** sender's current view (freshness/acceptance) *)
      slot_view : int;  (** view that assigned this slot (conflict resolution) *)
      seq : int;
      origin : int;
      req_id : int;
      payload : 'a;
    }
      (** Sequencer-assigned slot [seq]; members deliver in seq order. *)
  | Heartbeat of { view : int; sequencer : int; next_seq : int }
      (** Periodic liveness signal; [next_seq] lets receivers detect
          missed slots. *)
  | Nack of { asker : int; from_seq : int; upto_seq : int }
      (** Retransmission request for slots [from_seq..upto_seq]. *)
  | State_request of { view : int; asker : int }
      (** New sequencer collecting the highest slot anyone holds. *)
  | State_reply of { view : int; replier : int; highest_seq : int }
  | New_view of { view : int; sequencer : int; next_seq : int }
  | Take_over of { view : int }
      (** "You are the expected next sequencer — act." *)
