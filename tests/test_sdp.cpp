#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "sdp/sdp.hpp"

namespace scallop::sdp {
namespace {

SessionDescription MakeOffer() {
  SessionDescription offer;
  offer.origin = "client1";
  offer.session_id = 4242;
  offer.ice_ufrag = "ufrag1";
  offer.ice_pwd = "pwd1";

  MediaSection video;
  video.type = MediaType::kVideo;
  video.payload_type = 96;
  video.codec = "AV1";
  video.clock_rate = 90000;
  video.ssrc = 0x1111;
  video.cname = "alice";
  video.svc_l1t3 = true;
  video.dd_extension_id = 4;
  video.abs_send_time_id = 3;
  Candidate c;
  c.priority = 100;
  c.endpoint = {net::Ipv4(192, 168, 0, 5), 50000};
  video.candidates.push_back(c);
  offer.media.push_back(video);

  MediaSection audio;
  audio.type = MediaType::kAudio;
  audio.payload_type = 111;
  audio.codec = "opus";
  audio.clock_rate = 48000;
  audio.ssrc = 0x2222;
  audio.cname = "alice";
  audio.candidates.push_back(c);
  offer.media.push_back(audio);
  return offer;
}

TEST(Sdp, RoundTrip) {
  SessionDescription offer = MakeOffer();
  auto parsed = SessionDescription::Parse(offer.ToString());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->session_id, 4242u);
  EXPECT_EQ(parsed->ice_ufrag, "ufrag1");
  EXPECT_EQ(parsed->ice_pwd, "pwd1");
  ASSERT_EQ(parsed->media.size(), 2u);

  const auto& v = parsed->media[0];
  EXPECT_EQ(v.type, MediaType::kVideo);
  EXPECT_EQ(v.payload_type, 96);
  EXPECT_EQ(v.codec, "AV1");
  EXPECT_EQ(v.clock_rate, 90000u);
  EXPECT_EQ(v.ssrc, 0x1111u);
  EXPECT_EQ(v.cname, "alice");
  EXPECT_TRUE(v.svc_l1t3);
  EXPECT_EQ(v.dd_extension_id, 4);
  EXPECT_EQ(v.abs_send_time_id, 3);
  ASSERT_EQ(v.candidates.size(), 1u);
  EXPECT_EQ(v.candidates[0].endpoint.addr, net::Ipv4(192, 168, 0, 5));
  EXPECT_EQ(v.candidates[0].endpoint.port, 50000);

  const auto& a = parsed->media[1];
  EXPECT_EQ(a.type, MediaType::kAudio);
  EXPECT_EQ(a.codec, "opus");
  EXPECT_FALSE(a.svc_l1t3);
}

TEST(Sdp, CandidateLineRoundTrip) {
  Candidate c;
  c.foundation = "7";
  c.component = 1;
  c.priority = 999;
  c.endpoint = {net::Ipv4(1, 2, 3, 4), 5678};
  c.type = "srflx";
  auto parsed = Candidate::FromLine(c.ToLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->foundation, "7");
  EXPECT_EQ(parsed->priority, 999u);
  EXPECT_EQ(parsed->endpoint, c.endpoint);
  EXPECT_EQ(parsed->type, "srflx");
}

TEST(Sdp, CandidateLineRejectsGarbage) {
  EXPECT_FALSE(Candidate::FromLine("a=candidate:x").has_value());
  EXPECT_FALSE(Candidate::FromLine("m=video 9 UDP/RTP 96").has_value());
}

// An address must be exactly four dot-separated decimal octets of 0-255.
// Octets past 255 used to wrap (300.1.1.999 read as 44.1.1.231).
TEST(Sdp, CandidateLineRejectsMalformedAddress) {
  for (const char* addr :
       {"300.1.1.999", "256.0.0.1", "1.2.3", "1.2.3.4.5", "1.2.3.4x", "1..2.3",
        "-1.2.3.4", "+1.2.3.4", "1.2.3.", "a.b.c.d", "4294967297.0.0.1"}) {
    const std::string line =
        std::string("a=candidate:1 1 udp 100 ") + addr + " 40000 typ host";
    EXPECT_FALSE(Candidate::FromLine(line).has_value()) << addr;
  }
  for (const net::Ipv4 addr :
       {net::Ipv4(0, 0, 0, 0), net::Ipv4(255, 255, 255, 255),
        net::Ipv4(100, 64, 0, 1)}) {
    Candidate c;
    c.endpoint = {addr, 40'000};
    const auto parsed = Candidate::FromLine(c.ToLine());
    ASSERT_TRUE(parsed.has_value()) << addr.ToString();
    EXPECT_EQ(parsed->endpoint, c.endpoint);
  }
}

TEST(Sdp, ParseRejectsMissingVersion) {
  EXPECT_FALSE(SessionDescription::Parse("s=-\nt=0 0\n").has_value());
}

// Lines from mutants SdpParseFuzz (test_properties.cpp) found escaping the
// parser as std::stoul exceptions, or accepted with a wrapped number: a
// missing extmap id, a candidate whose port field is a word, a component
// past 64 bits, and a negative clock rate. A malformed number now rejects
// the description, and a candidate line with one, or with an address that
// is not four octets of 0-255, is dropped like any other malformed
// candidate.
TEST(Sdp, ParseRejectsMalformedNumbersWithoutThrowing) {
  const std::string head =
      "v=0\no=answer 1 1 IN IP4 0.0.0.0\ns=-\nt=0 0\nm=audio 9 UDP/RTP 111\n";
  for (const char* line :
       {"a=extmap: http://www.webrtc.org/experiments/rtp-hdrext/abs-send-time",
        "a=rtpmap:111 opus/-1", "o=answer 99999999999999999999999 1"}) {
    std::optional<SessionDescription> desc;
    EXPECT_NO_THROW(desc = SessionDescription::Parse(head + line + "\n"))
        << line;
    EXPECT_FALSE(desc.has_value()) << line;
  }
  for (const char* line :
       {"a=candidate:1 1 udp 100 100.60000 typ host",
        "a=candidate:1 99999999999999999999999 udp 100 100.64.0.1 40000 typ "
        "host",
        "a=candidate:1 1 udp 100 300.1.1.999 40000 typ host"}) {
    std::optional<SessionDescription> desc;
    EXPECT_NO_THROW(desc = SessionDescription::Parse(head + line + "\n"))
        << line;
    ASSERT_TRUE(desc.has_value()) << line;
    ASSERT_EQ(desc->media.size(), 1u);
    EXPECT_TRUE(desc->media[0].candidates.empty()) << line;
  }
}

TEST(Sdp, RewriteCandidatesReturnsOriginals) {
  SessionDescription offer = MakeOffer();
  net::Endpoint sfu{net::Ipv4(100, 64, 0, 1), 3478};
  auto originals = RewriteCandidates(offer, sfu);
  ASSERT_EQ(originals.size(), 2u);
  EXPECT_EQ(originals[0].endpoint.port, 50000);
  for (const auto& m : offer.media) {
    for (const auto& c : m.candidates) {
      EXPECT_EQ(c.endpoint, sfu);
    }
  }
}

TEST(Sdp, RewriteAddsCandidateWhenNoneExist) {
  SessionDescription desc;
  desc.media.push_back(MediaSection{});
  net::Endpoint sfu{net::Ipv4(100, 64, 0, 1), 3478};
  RewriteCandidates(desc, sfu);
  ASSERT_EQ(desc.media[0].candidates.size(), 1u);
  EXPECT_EQ(desc.media[0].candidates[0].endpoint, sfu);
}

TEST(Sdp, MakeAnswerMirrorsMedia) {
  SessionDescription offer = MakeOffer();
  net::Endpoint answerer{net::Ipv4(10, 0, 0, 9), 40000};
  auto answer = MakeAnswer(offer, answerer, "uf2", "pw2");
  EXPECT_EQ(answer.ice_ufrag, "uf2");
  ASSERT_EQ(answer.media.size(), 2u);
  EXPECT_EQ(answer.media[0].type, MediaType::kVideo);
  EXPECT_TRUE(answer.media[0].svc_l1t3);
  ASSERT_EQ(answer.media[0].candidates.size(), 1u);
  EXPECT_EQ(answer.media[0].candidates[0].endpoint, answerer);
  EXPECT_EQ(answer.media[0].ssrc, 0u);  // answerer's own ssrcs come later
}

}  // namespace
}  // namespace scallop::sdp
