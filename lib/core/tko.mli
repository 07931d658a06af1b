(** TKO — "Transport Kernel Objects" (§4.2).

    The session architecture level: a {!context} is the executable
    representation the synthesizer builds from an SCS — a table of
    instantiated mechanism components (the analog of the C++ table of
    pointers to abstract base classes in Figure 5).  The protocol
    interpreter ({!Session}) invokes operations on PDUs through the
    context.

    [segue] is the live-swap mechanism: rebinding one or more components
    of an {e established} context to different concrete implementations
    without losing shared session state (send window, receive sequencing,
    RTT history survive a swap untouched).

    Templates (§4.2.2) pre-assemble common configurations.  {e Static}
    templates trade flexibility for speed: a context synthesized from one
    refuses segue and must be re-synthesized to change.  {e Reconfigurable}
    templates and fully dynamic syntheses accept segue. *)

open Adaptive_mech

type binding =
  | Static_template of string  (** Fully customized; cannot change. *)
  | Reconfigurable_template of string  (** Pre-assembled but swappable. *)
  | Synthesized  (** Built mechanism-by-mechanism from the SCS. *)

type context = {
  binding : binding;
  mutable scs : Scs.t;  (** Currently bound configuration. *)
  window : Window.t;  (** Shared in-flight state (survives segue). *)
  rtt : Rtt.t;  (** Shared RTT history (survives segue). *)
  mutable reorder : Reorder.t;  (** Receiver sequencing state. *)
  mutable playout : Playout.t option;  (** Playout buffer when bound. *)
  mutable segue_count : int;  (** Number of live swaps applied. *)
  connection : Connection.t;
      (** Handshake and release state under the bound connection
          scheme (survives segue). *)
  transmission : Transmission.t;
      (** Pacer, congestion window and the peer's advertised window under
          the bound transmission and congestion schemes. *)
  recovery : Recovery.t;
      (** Loss-recovery state under the bound recovery scheme: timers,
          acknowledgment state and FEC (survives segue). *)
  reporting : Reporting.t;
      (** Detection and reporting under the bound schemes: the
          delayed-ack and re-NACK timers and the echo stamp (survive
          segue). *)
}

val synthesize : ?binding:binding -> Scs.t -> context
(** Instantiate every component the SCS names (Stage III).  Default
    binding is [Synthesized]. *)

val segue : context -> Scs.t -> (string list, string) result
(** Rebind the context to a new SCS.  Returns the component names that
    changed ([Ok []] when the SCS is identical).  [Error _] when the
    context came from a static template.  Shared state is preserved;
    components present in both configurations keep their state (e.g.
    the pacer's token level survives a rate change). *)

(** The template cache (§4.2.2): named default configurations for
    commonly requested SCSs. *)
module Templates : sig
  val tcp_compatible : string
  (** Static template: TCP-like reliable byte stream. *)

  val udp_compatible : string
  (** Static template: bare datagrams. *)

  val media_stream : string
  (** Reconfigurable: rate-paced, playout-buffered continuous media. *)

  val bulk_lfn : string
  (** Reconfigurable: bulk transfer over long-fat-network paths (scaled
      window + SACK + selective repeat). *)

  val transaction : string
  (** Reconfigurable: implicit-setup request/response. *)

  val swarm_lite : string
  (** Reconfigurable: the minimal-footprint configuration MANTTS admission
      control counter-proposes under overload — reliable and ordered, but
      with a tiny window, a small receive-buffer commitment and background
      priority. *)

  val names : string list
  (** Every template name. *)

  val find : string -> (binding * Scs.t) option
  (** Look up a template. *)

  val lookup_scs : Scs.t -> (binding * string) option
  (** Reverse lookup: does some template pre-assemble this exact SCS? *)
end
