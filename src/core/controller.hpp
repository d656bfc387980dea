// The signaling vocabulary of Scallop's controller (paper §5.1): the
// SignalingServer face a client joins through, the SignalingClient
// callbacks the server drives, and the sender intent read from an SDP
// offer. The server terminates SDP offer/answer, rewrites ICE candidates
// so the SFU appears as each participant's sole peer, and negotiates one
// receive leg per participant pair (the paper's per-participant WebRTC
// stream split, §5.3) through the SignalingClient callbacks, which stand
// in for the WebSocket renegotiation channel. Scallop's server is the
// FleetController (fleet.hpp), which programs every switch itself over
// its southbound ControlChannel; the software-SFU baseline is the other.
#pragma once

#include "core/types.hpp"
#include "net/address.hpp"
#include "sdp/sdp.hpp"

namespace scallop::core {

// Implemented by clients; the controller calls these during (re)negotiation.
class SignalingClient {
 public:
  virtual ~SignalingClient() = default;
  // Asks the client to open a local socket for media from `sender`;
  // returns the client-side endpoint of the new leg.
  virtual net::Endpoint AllocateLocalLeg(ParticipantId sender) = 0;
  // Completes the leg: media from `sender` (with these ssrcs) will arrive
  // from `sfu_endpoint`; feedback for it goes there too.
  virtual void OnRemoteLegReady(ParticipantId sender, uint32_t video_ssrc,
                                uint32_t audio_ssrc,
                                net::Endpoint sfu_endpoint) = 0;
  virtual void OnRemoteSenderLeft(ParticipantId sender) = 0;
};

// Sender intent parsed from an SDP offer: which media the participant
// sends, with which ssrcs, from where. Shared by FleetController::Join
// and SoftwareSfu::Join so they can never drift.
struct SenderIntent {
  net::Endpoint media_src;
  uint32_t video_ssrc = 0;
  uint32_t audio_ssrc = 0;
  bool sends_video = false;
  bool sends_audio = false;
  bool sends() const { return sends_video || sends_audio; }
};
SenderIntent ParseSenderIntent(const sdp::SessionDescription& offer);

// Abstract signaling server: implemented by the FleetController (and the
// FederatedControlPlane in front of its regions) and by the software-SFU
// baseline, so the same Peer client works against both. It is also the
// signaling seam the testbed::Backend interface hands to the scenario
// harness.
class SignalingServer {
 public:
  virtual ~SignalingServer() = default;

  struct JoinResult {
    ParticipantId participant = 0;
    sdp::SessionDescription answer;
    net::Endpoint uplink_sfu;  // where the client sends its media + STUN
  };
  virtual JoinResult Join(MeetingId meeting,
                          const sdp::SessionDescription& offer,
                          SignalingClient* client) = 0;
  virtual void Leave(MeetingId meeting, ParticipantId participant) = 0;
};

}  // namespace scallop::core
