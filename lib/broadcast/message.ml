type 'a t =
  | Request of { origin : int; req_id : int; payload : 'a }
  | Ordered of {
      view : int;  (** sender's current view (freshness/acceptance) *)
      slot_view : int;  (** view that assigned this slot (conflict resolution) *)
      seq : int;
      origin : int;
      req_id : int;
      payload : 'a;
    }
  | Heartbeat of { view : int; sequencer : int; next_seq : int }
  | Nack of { asker : int; from_seq : int; upto_seq : int }
  | State_request of { view : int; asker : int }
  | State_reply of { view : int; replier : int; highest_seq : int }
  | New_view of { view : int; sequencer : int; next_seq : int }
  | Take_over of { view : int }
