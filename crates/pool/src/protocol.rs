//! The pool's JSON wire protocol.
//!
//! Modeled on the Coinhive WebSocket protocol the paper observes from
//! instrumented Chrome sessions (§3.2) and speaks directly in §4: the
//! client authenticates with its customer token, asks for jobs, and
//! submits share results; the server acknowledges accepted hashes (which
//! is how the short-link progress bar advances).

use minedig_net::json::Value;
use minedig_primitives::{from_hex, to_hex, Hash32};

/// A Coinhive-style customer token ("site key"): identifies who is
/// credited for submitted hashes. The paper treats users and tokens as
/// synonymous (§4.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub String);

impl Token {
    /// Derives a deterministic token from an index, in the style of the
    /// 32-character site keys Coinhive issued.
    pub fn from_index(index: u64) -> Token {
        let h = Hash32::keccak(&index.to_le_bytes());
        Token(h.to_hex()[..32].to_string())
    }
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A mining job as sent to clients.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Opaque job id, echoed back in submissions.
    pub job_id: String,
    /// Hex-encoded hashing blob with the nonce field zeroed,
    /// XOR-obfuscated as the pool serves it.
    pub blob_hex: String,
    /// Share difficulty the result hash must satisfy.
    pub share_difficulty: u64,
    /// Chain height this job mines.
    pub height: u64,
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Authenticate with a customer token.
    Auth {
        /// The customer token hashes are credited to.
        token: Token,
    },
    /// Request a (fresh) job.
    GetJob,
    /// Observer probe: read endpoint `endpoint`'s current job as of
    /// virtual time `now` without authenticating or mutating pool state.
    /// This is the wire form of the §4.2 poll sweep — what the paper's
    /// measurement client asks its 32 WebSocket endpoints every 500 ms.
    Peek {
        /// Endpoint index to observe.
        endpoint: u64,
        /// Observer's virtual timestamp (keys the job template).
        now: u64,
    },
    /// Submit a share result.
    Submit {
        /// Job id the share belongs to.
        job_id: String,
        /// The winning nonce.
        nonce: u32,
        /// The PoW hash of the (de-obfuscated) blob with that nonce.
        result: Hash32,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// Authentication accepted.
    Authed {
        /// Hashes already credited to this token (session-resume style).
        hashes: u64,
    },
    /// A job to work on.
    Job(Job),
    /// Share accepted; `hashes` is the cumulative credited count for this
    /// session's token (each share credits its difficulty).
    HashAccepted {
        /// Cumulative credited hashes.
        hashes: u64,
    },
    /// Protocol or validation error.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

/// Encode/decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn need_str(v: &Value, key: &str) -> Result<String, ProtocolError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtocolError(format!("missing string field '{key}'")))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ProtocolError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| ProtocolError(format!("missing integer field '{key}'")))
}

impl ClientMsg {
    /// Serializes to a JSON byte string.
    pub fn encode(&self) -> Vec<u8> {
        let v = match self {
            ClientMsg::Auth { token } => Value::object(vec![
                ("type", Value::str("auth")),
                ("token", Value::str(&token.0)),
            ]),
            ClientMsg::GetJob => Value::object(vec![("type", Value::str("get_job"))]),
            ClientMsg::Peek { endpoint, now } => Value::object(vec![
                ("type", Value::str("peek")),
                ("endpoint", Value::u64(*endpoint)),
                ("now", Value::u64(*now)),
            ]),
            ClientMsg::Submit {
                job_id,
                nonce,
                result,
            } => Value::object(vec![
                ("type", Value::str("submit")),
                ("job_id", Value::str(job_id)),
                ("nonce", Value::u64(*nonce as u64)),
                ("result", Value::str(&result.to_hex())),
            ]),
        };
        v.encode().into_bytes()
    }

    /// Parses a JSON byte string.
    pub fn decode(bytes: &[u8]) -> Result<ClientMsg, ProtocolError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| ProtocolError("not UTF-8".to_string()))?;
        let v = Value::parse(text).map_err(|e| ProtocolError(e.to_string()))?;
        match need_str(&v, "type")?.as_str() {
            "auth" => Ok(ClientMsg::Auth {
                token: Token(need_str(&v, "token")?),
            }),
            "get_job" => Ok(ClientMsg::GetJob),
            "peek" => Ok(ClientMsg::Peek {
                endpoint: need_u64(&v, "endpoint")?,
                now: need_u64(&v, "now")?,
            }),
            "submit" => {
                let nonce = need_u64(&v, "nonce")?;
                if nonce > u32::MAX as u64 {
                    return Err(ProtocolError("nonce out of range".to_string()));
                }
                let result = Hash32::from_hex(&need_str(&v, "result")?)
                    .ok_or_else(|| ProtocolError("bad result hash".to_string()))?;
                Ok(ClientMsg::Submit {
                    job_id: need_str(&v, "job_id")?,
                    nonce: nonce as u32,
                    result,
                })
            }
            other => Err(ProtocolError(format!("unknown client message '{other}'"))),
        }
    }
}

impl ServerMsg {
    /// Serializes to a JSON byte string.
    pub fn encode(&self) -> Vec<u8> {
        let v = match self {
            ServerMsg::Authed { hashes } => Value::object(vec![
                ("type", Value::str("authed")),
                ("hashes", Value::u64(*hashes)),
            ]),
            ServerMsg::Job(job) => Value::object(vec![
                ("type", Value::str("job")),
                ("job_id", Value::str(&job.job_id)),
                ("blob", Value::str(&job.blob_hex)),
                ("difficulty", Value::u64(job.share_difficulty)),
                ("height", Value::u64(job.height)),
            ]),
            ServerMsg::HashAccepted { hashes } => Value::object(vec![
                ("type", Value::str("hash_accepted")),
                ("hashes", Value::u64(*hashes)),
            ]),
            ServerMsg::Error { reason } => Value::object(vec![
                ("type", Value::str("error")),
                ("reason", Value::str(reason)),
            ]),
        };
        v.encode().into_bytes()
    }

    /// Parses a JSON byte string.
    pub fn decode(bytes: &[u8]) -> Result<ServerMsg, ProtocolError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| ProtocolError("not UTF-8".to_string()))?;
        let v = Value::parse(text).map_err(|e| ProtocolError(e.to_string()))?;
        match need_str(&v, "type")?.as_str() {
            "authed" => Ok(ServerMsg::Authed {
                hashes: need_u64(&v, "hashes")?,
            }),
            "job" => Ok(ServerMsg::Job(Job {
                job_id: need_str(&v, "job_id")?,
                blob_hex: need_str(&v, "blob")?,
                share_difficulty: need_u64(&v, "difficulty")?,
                height: need_u64(&v, "height")?,
            })),
            "hash_accepted" => Ok(ServerMsg::HashAccepted {
                hashes: need_u64(&v, "hashes")?,
            }),
            "error" => Ok(ServerMsg::Error {
                reason: need_str(&v, "reason")?,
            }),
            other => Err(ProtocolError(format!("unknown server message '{other}'"))),
        }
    }
}

impl Job {
    /// Decodes the blob hex into bytes.
    pub fn blob_bytes(&self) -> Result<Vec<u8>, ProtocolError> {
        from_hex(&self.blob_hex).ok_or_else(|| ProtocolError("bad blob hex".to_string()))
    }

    /// Builds a job from raw blob bytes.
    pub fn from_blob(job_id: String, blob: &[u8], share_difficulty: u64, height: u64) -> Job {
        Job {
            job_id,
            blob_hex: to_hex(blob),
            share_difficulty,
            height,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn auth_roundtrip() {
        let m = ClientMsg::Auth {
            token: Token::from_index(7),
        };
        assert_eq!(ClientMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn get_job_roundtrip() {
        let m = ClientMsg::GetJob;
        assert_eq!(ClientMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn peek_roundtrip() {
        let m = ClientMsg::Peek {
            endpoint: 31,
            now: 500,
        };
        assert_eq!(ClientMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn peek_requires_both_fields() {
        assert!(ClientMsg::decode(br#"{"type":"peek"}"#).is_err());
        assert!(ClientMsg::decode(br#"{"type":"peek","endpoint":1}"#).is_err());
        assert!(ClientMsg::decode(br#"{"type":"peek","now":1}"#).is_err());
    }

    #[test]
    fn submit_roundtrip() {
        let m = ClientMsg::Submit {
            job_id: "j-42".to_string(),
            nonce: 0xdeadbeef,
            result: Hash32::keccak(b"share"),
        };
        assert_eq!(ClientMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn server_messages_roundtrip() {
        let msgs = vec![
            ServerMsg::Authed { hashes: 512 },
            ServerMsg::Job(Job::from_blob("j-1".into(), &[1, 2, 3], 16, 1_600_000)),
            ServerMsg::HashAccepted { hashes: 1024 },
            ServerMsg::Error {
                reason: "invalid share".into(),
            },
        ];
        for m in msgs {
            assert_eq!(ServerMsg::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn job_blob_bytes_roundtrip() {
        let job = Job::from_blob("x".into(), &[0xab, 0xcd], 1, 2);
        assert_eq!(job.blob_bytes().unwrap(), vec![0xab, 0xcd]);
        let bad = Job {
            blob_hex: "zz".into(),
            ..job
        };
        assert!(bad.blob_bytes().is_err());
    }

    #[test]
    fn rejects_malformed_messages() {
        for bad in [
            &b"not json"[..],
            b"{}",
            br#"{"type":"warp"}"#,
            br#"{"type":"submit","job_id":"x","nonce":4294967296,"result":"00"}"#,
            br#"{"type":"submit","job_id":"x","nonce":1,"result":"nothex"}"#,
            br#"{"type":"auth"}"#,
            b"\xff\xfe",
        ] {
            assert!(ClientMsg::decode(bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            &br#"{"type":"job","job_id":"x"}"#[..],
            br#"{"type":"shed","retry_after_ms":3}"#,
        ] {
            assert!(ServerMsg::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tokens_are_stable_and_distinct() {
        assert_eq!(Token::from_index(1), Token::from_index(1));
        assert_ne!(Token::from_index(1), Token::from_index(2));
        assert_eq!(Token::from_index(1).0.len(), 32);
    }

    proptest! {
        #[test]
        fn submit_roundtrips_any_nonce(nonce in any::<u32>(), seed in any::<u64>()) {
            let m = ClientMsg::Submit {
                job_id: format!("job-{seed}"),
                nonce,
                result: Hash32::keccak(&seed.to_le_bytes()),
            };
            prop_assert_eq!(ClientMsg::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn job_roundtrips_any_difficulty(d in any::<u64>(), h in any::<u64>()) {
            let m = ServerMsg::Job(Job::from_blob("j".into(), &[9; 76], d, h));
            prop_assert_eq!(ServerMsg::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
            let _ = ClientMsg::decode(&bytes);
            let _ = ServerMsg::decode(&bytes);
        }
    }
}
