#include "sdp/sdp.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace scallop::sdp {

std::string MediaTypeName(MediaType t) {
  switch (t) {
    case MediaType::kAudio: return "audio";
    case MediaType::kVideo: return "video";
    case MediaType::kScreen: return "screen";
  }
  return "video";
}

namespace {

std::optional<MediaType> MediaTypeFromName(const std::string& s) {
  if (s == "audio") return MediaType::kAudio;
  if (s == "video") return MediaType::kVideo;
  if (s == "screen") return MediaType::kScreen;
  return std::nullopt;
}

// Splits a line into whitespace-separated tokens.
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

// Stores the decimal number `field` starts with in `out`, truncated to
// its width; false when the field starts with no digit or the number
// does not fit in 64 bits. Unlike std::stoul it never throws, so a
// malformed number rejects its line instead of escaping the parser.
template <typename T>
bool ReadNumber(std::string_view field, T& out) {
  uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{}) return false;
  out = static_cast<T>(value);
  return true;
}

}  // namespace

std::string Candidate::ToLine() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "a=candidate:%s %u udp %u %s %u typ %s",
                foundation.c_str(), component, priority,
                endpoint.addr.ToString().c_str(), endpoint.port, type.c_str());
  return buf;
}

std::optional<Candidate> Candidate::FromLine(const std::string& line) {
  // a=candidate:<foundation> <component> udp <priority> <ip> <port> typ <type>
  constexpr const char* kPrefix = "a=candidate:";
  if (line.rfind(kPrefix, 0) != 0) return std::nullopt;
  auto toks = Tokens(line.substr(std::string(kPrefix).size()));
  if (toks.size() < 7 || toks[2] != "udp") return std::nullopt;
  Candidate c;
  c.foundation = toks[0];
  const std::optional<net::Ipv4> addr = net::Ipv4::Parse(toks[4]);
  if (!ReadNumber(toks[1], c.component) || !ReadNumber(toks[3], c.priority) ||
      !addr.has_value() || !ReadNumber(toks[5], c.endpoint.port)) {
    return std::nullopt;
  }
  c.endpoint.addr = *addr;
  if (toks.size() >= 8 && toks[6] == "typ") c.type = toks[7];
  return c;
}

std::string SessionDescription::ToString() const {
  std::ostringstream os;
  os << "v=0\n";
  os << "o=" << origin << " " << session_id << " 1 IN IP4 0.0.0.0\n";
  os << "s=-\n";
  os << "t=0 0\n";
  if (!ice_ufrag.empty()) os << "a=ice-ufrag:" << ice_ufrag << "\n";
  if (!ice_pwd.empty()) os << "a=ice-pwd:" << ice_pwd << "\n";
  for (const auto& m : media) {
    os << "m=" << MediaTypeName(m.type) << " 9 UDP/RTP "
       << static_cast<int>(m.payload_type) << "\n";
    os << "a=rtpmap:" << static_cast<int>(m.payload_type) << " " << m.codec
       << "/" << m.clock_rate << "\n";
    if (m.svc_l1t3) {
      os << "a=fmtp:" << static_cast<int>(m.payload_type)
         << " scalability-mode=L1T3\n";
    }
    if (m.dd_extension_id != 0) {
      os << "a=extmap:" << static_cast<int>(m.dd_extension_id)
         << " https://aomediacodec.github.io/av1-rtp-spec/"
            "#dependency-descriptor-rtp-header-extension\n";
    }
    if (m.abs_send_time_id != 0) {
      os << "a=extmap:" << static_cast<int>(m.abs_send_time_id)
         << " http://www.webrtc.org/experiments/rtp-hdrext/abs-send-time\n";
    }
    if (m.ssrc != 0) {
      os << "a=ssrc:" << m.ssrc << " cname:" << m.cname << "\n";
    }
    if (m.recv_only) os << "a=recvonly\n";
    for (const auto& c : m.candidates) os << c.ToLine() << "\n";
  }
  return os.str();
}

std::optional<SessionDescription> SessionDescription::Parse(
    const std::string& text) {
  SessionDescription desc;
  MediaSection* current = nullptr;
  std::istringstream is(text);
  std::string line;
  bool saw_version = false;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == "v=0") {
      saw_version = true;
    } else if (line.rfind("o=", 0) == 0) {
      auto toks = Tokens(line.substr(2));
      if (toks.size() >= 2) {
        desc.origin = toks[0];
        if (!ReadNumber(toks[1], desc.session_id)) return std::nullopt;
      }
    } else if (line.rfind("a=ice-ufrag:", 0) == 0) {
      desc.ice_ufrag = line.substr(12);
    } else if (line.rfind("a=ice-pwd:", 0) == 0) {
      desc.ice_pwd = line.substr(10);
    } else if (line.rfind("m=", 0) == 0) {
      auto toks = Tokens(line.substr(2));
      if (toks.empty()) return std::nullopt;
      auto type = MediaTypeFromName(toks[0]);
      if (!type) return std::nullopt;
      MediaSection section;
      section.type = *type;
      if (toks.size() >= 4 && !ReadNumber(toks[3], section.payload_type)) {
        return std::nullopt;
      }
      desc.media.push_back(section);
      current = &desc.media.back();
    } else if (current != nullptr) {
      if (line.rfind("a=rtpmap:", 0) == 0) {
        auto slash = line.find('/');
        auto space = line.find(' ');
        if (slash != std::string::npos && space != std::string::npos) {
          current->codec = line.substr(space + 1, slash - space - 1);
          if (!ReadNumber(std::string_view(line).substr(slash + 1),
                          current->clock_rate)) {
            return std::nullopt;
          }
        }
      } else if (line.find("scalability-mode=L1T3") != std::string::npos) {
        current->svc_l1t3 = true;
      } else if (line.rfind("a=extmap:", 0) == 0) {
        auto toks = Tokens(line.substr(9));
        if (!toks.empty()) {
          uint8_t id = 0;
          if (!ReadNumber(toks[0], id)) return std::nullopt;
          if (line.find("dependency-descriptor") != std::string::npos) {
            current->dd_extension_id = id;
          } else if (line.find("abs-send-time") != std::string::npos) {
            current->abs_send_time_id = id;
          }
        }
      } else if (line.rfind("a=ssrc:", 0) == 0) {
        auto toks = Tokens(line.substr(7));
        if (!toks.empty()) {
          if (!ReadNumber(toks[0], current->ssrc)) return std::nullopt;
          for (const auto& t : toks) {
            if (t.rfind("cname:", 0) == 0) current->cname = t.substr(6);
          }
        }
      } else if (line == "a=recvonly") {
        current->recv_only = true;
      } else if (line.rfind("a=candidate:", 0) == 0) {
        auto c = Candidate::FromLine(line);
        if (c) current->candidates.push_back(*c);
      }
    }
  }
  if (!saw_version) return std::nullopt;
  return desc;
}

SessionDescription MakeAnswer(const SessionDescription& offer,
                              const net::Endpoint& answerer_endpoint,
                              const std::string& ice_ufrag,
                              const std::string& ice_pwd) {
  SessionDescription answer;
  answer.origin = "answer";
  answer.session_id = offer.session_id;
  answer.ice_ufrag = ice_ufrag;
  answer.ice_pwd = ice_pwd;
  for (const auto& m : offer.media) {
    MediaSection section = m;
    section.ssrc = 0;  // answerer announces its own ssrcs separately
    section.cname.clear();
    section.candidates.clear();
    Candidate c;
    c.priority = 100;
    c.endpoint = answerer_endpoint;
    section.candidates.push_back(c);
    answer.media.push_back(std::move(section));
  }
  return answer;
}

std::vector<Candidate> RewriteCandidates(SessionDescription& desc,
                                         const net::Endpoint& sfu_endpoint) {
  std::vector<Candidate> original;
  for (auto& m : desc.media) {
    for (auto& c : m.candidates) {
      original.push_back(c);
      c.endpoint = sfu_endpoint;
      c.type = "host";
    }
    if (m.candidates.empty()) {
      Candidate c;
      c.priority = 100;
      c.endpoint = sfu_endpoint;
      m.candidates.push_back(c);
    }
  }
  return original;
}

}  // namespace scallop::sdp
