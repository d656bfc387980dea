// Scallop's centralized controller (paper §5.1): the signaling server.
// It terminates SDP offer/answer, rewrites ICE candidates so the SFU
// appears as each participant's sole peer, tracks sessions, and programs
// the switch agent through the southbound core::ControlChannel. Per-
// participant-pair receive legs (the paper's per-participant WebRTC stream
// split, §5.3) are negotiated through the SignalingClient callbacks, which
// stand in for the WebSocket renegotiation channel.
#pragma once

#include <map>
#include <string>

#include "core/control_channel.hpp"
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
// sends, with which ssrcs, from where. Shared by Controller::Join, the
// FleetController's member bookkeeping and SoftwareSfu::Join so they can
// never drift.
struct SenderIntent {
  net::Endpoint media_src;
  uint32_t video_ssrc = 0;
  uint32_t audio_ssrc = 0;
  bool sends_video = false;
  bool sends_audio = false;
};
SenderIntent ParseSenderIntent(const sdp::SessionDescription& offer);

struct ControllerStats {
  uint64_t meetings_created = 0;
  uint64_t joins = 0;
  uint64_t leaves = 0;
  uint64_t sdp_messages = 0;
  uint64_t candidates_rewritten = 0;
  uint64_t legs_negotiated = 0;
};

// Abstract signaling server: implemented by Scallop's Controller, by the
// software-SFU baseline, and by the FleetController (which delegates to a
// per-switch Controller after placement) so the same Peer client works
// against all of them — it is also the signaling seam the
// testbed::Backend interface hands to the scenario harness.
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

class Controller : public SignalingServer {
 public:
  // `first_participant` offsets this controller's participant-id space;
  // a fleet gives each switch's controller a disjoint range so ids stay
  // globally unique across switches (a stale signaling message for a
  // participant from one switch can never name a live one on another).
  Controller(ControlChannel& channel, net::Ipv4 sfu_ip,
             ParticipantId first_participant = 1)
      : channel_(channel),
        sfu_ip_(sfu_ip),
        next_participant_(first_participant) {}

  MeetingId CreateMeeting();
  // Ends the meeting: every remaining member is told about every peer
  // sender's departure (so clients tear down their receive legs) before
  // the switch-side state is removed.
  void EndMeeting(MeetingId id);

  // `offer` carries the client's media sections and host candidates.
  JoinResult Join(MeetingId meeting, const sdp::SessionDescription& offer,
                  SignalingClient* client) override;
  void Leave(MeetingId meeting, ParticipantId participant) override;

  // Southbound passthrough for scripted experiments: pins a decode target
  // over the control channel instead of poking the agent in-process.
  void ForceDecodeTarget(MeetingId meeting, ParticipantId receiver,
                         ParticipantId sender, int dt);

  const ControllerStats& stats() const { return stats_; }
  ControlChannel& channel() { return channel_; }

 private:
  struct Member {
    ParticipantId id;
    SignalingClient* client;
    uint32_t video_ssrc = 0;
    uint32_t audio_ssrc = 0;
    bool sends_video = false;
    bool sends_audio = false;
  };

  ControlChannel& channel_;
  net::Ipv4 sfu_ip_;
  MeetingId next_meeting_ = 1;
  ParticipantId next_participant_;
  std::map<MeetingId, std::map<ParticipantId, Member>> meetings_;
  ControllerStats stats_;
};

}  // namespace scallop::core
