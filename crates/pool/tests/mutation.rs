//! Mutation robustness of the pool's codecs: flip, cut and insert bytes
//! in encoded client and server messages and in the observer's blob
//! path, and require a typed error or a value that survives a re-encode.
//!
//! The pool decodes client frames from any peer, and the §4.2 observer
//! decodes server frames and job blobs from a pool it does not control;
//! malformed input must not take either down.

use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::Transaction;
use minedig_chain::HashingBlob;
use minedig_pool::obfuscation::{obfuscated, xor_blob};
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_pool::protocol::{ClientMsg, Job, ServerMsg, Token};
use minedig_primitives::{DetRng, Hash32};

/// A pool at height 10 with a 12-transaction mempool, the size of an
/// average block in the §4.2 scenario.
fn pool_with_tip() -> Pool {
    let pool = Pool::new(PoolConfig::default());
    pool.announce_tip(&TipInfo {
        height: 10,
        prev_id: Hash32::keccak(b"prev-10"),
        prev_timestamp: 1_000,
        reward: 4_400_000_000_000,
        difficulty: 55_400_000_000,
        mempool: (0..12u64)
            .map(|i| Transaction::transfer(Hash32::keccak(&i.to_le_bytes())))
            .collect(),
    });
    pool
}

/// Jobs as the pool serves them: one peek per backend and one issued job.
fn served_jobs() -> Vec<Job> {
    let pool = pool_with_tip();
    let mut jobs: Vec<Job> = (0..pool.endpoint_count())
        .step_by(2)
        .map(|endpoint| {
            Job::clone(
                &pool
                    .peek_job(endpoint, 1_000 + endpoint as u64 * 7)
                    .unwrap(),
            )
        })
        .collect();
    jobs.push(pool.issue_job(3, 1_050).unwrap());
    jobs
}

fn client_msgs() -> Vec<ClientMsg> {
    vec![
        ClientMsg::Auth {
            token: Token::from_index(7),
        },
        ClientMsg::GetJob,
        ClientMsg::Peek {
            endpoint: 31,
            now: 1_525_910_400,
        },
        ClientMsg::Submit {
            job_id: "j12-10-1".to_string(),
            nonce: 0xdead_beef,
            result: Hash32::keccak(b"share"),
        },
    ]
}

fn server_msgs() -> Vec<ServerMsg> {
    let mut msgs: Vec<ServerMsg> = served_jobs().into_iter().map(ServerMsg::Job).collect();
    msgs.extend([
        ServerMsg::Authed { hashes: 512 },
        ServerMsg::HashAccepted { hashes: 1 << 40 },
        ServerMsg::Error {
            reason: "endpoint 999 does not exist".to_string(),
        },
    ]);
    msgs
}

/// Calls `check` on mutants of `base`: `rounds` copies with 1–4 bit
/// flips, every truncation, and `rounds` single-byte insertions.
fn for_each_mutant(base: &[u8], rng: &mut DetRng, rounds: usize, mut check: impl FnMut(&[u8])) {
    for _ in 0..rounds {
        let mut mutant = base.to_vec();
        for _ in 0..1 + rng.gen_range(4) {
            let i = rng.range_usize(0, mutant.len());
            mutant[i] ^= 1 << rng.gen_range(8);
        }
        check(&mutant);
    }
    for cut in 0..base.len() {
        check(&base[..cut]);
    }
    for _ in 0..rounds {
        let mut mutant = base.to_vec();
        let i = rng.range_usize(0, mutant.len() + 1);
        mutant.insert(i, rng.gen_range(256) as u8);
        check(&mutant);
    }
}

#[test]
fn mutated_client_messages_decode_to_an_error_or_a_stable_value() {
    let mut rng = DetRng::seed(0xc11e);
    let mut decoded = 0;
    for msg in client_msgs() {
        for_each_mutant(&msg.encode(), &mut rng, 8_000, |bytes| {
            if let Ok(value) = ClientMsg::decode(bytes) {
                decoded += 1;
                let again = ClientMsg::decode(&value.encode());
                assert_eq!(again.as_ref(), Ok(&value), "mutant {bytes:?}");
            }
        });
    }
    assert!(decoded > 0, "some mutants must still decode");
}

#[test]
fn mutated_server_messages_decode_to_an_error_or_a_stable_value() {
    let mut rng = DetRng::seed(0x5e7e);
    let mut decoded = 0;
    for msg in server_msgs() {
        for_each_mutant(&msg.encode(), &mut rng, 2_000, |bytes| {
            if let Ok(value) = ServerMsg::decode(bytes) {
                decoded += 1;
                let again = ServerMsg::decode(&value.encode());
                assert_eq!(again.as_ref(), Ok(&value), "mutant {bytes:?}");
            }
        });
    }
    assert!(decoded > 0, "some mutants must still decode");
}

/// The observer's blob path: hex decode, revert the XOR, parse. A blob
/// that parses must come back equal from its own wire form.
fn check_blob_path(job: &Job) {
    let Ok(mut bytes) = job.blob_bytes() else {
        return;
    };
    xor_blob(&mut bytes);
    let Ok(blob) = HashingBlob::parse(&bytes) else {
        return;
    };
    let wire = Job::from_blob(job.job_id.clone(), &obfuscated(&blob.to_bytes()), 1, 10);
    let mut again = wire.blob_bytes().expect("re-encoded hex decodes");
    xor_blob(&mut again);
    assert_eq!(
        HashingBlob::parse(&again),
        Ok(blob),
        "blob {}",
        job.blob_hex
    );
}

#[test]
fn mutated_job_blobs_parse_to_an_error_or_a_stable_blob() {
    let mut rng = DetRng::seed(0xb10b);
    for job in served_jobs() {
        // Mutate the hex text the observer receives…
        for_each_mutant(job.blob_hex.as_bytes(), &mut rng, 800, |text| {
            if let Ok(blob_hex) = std::str::from_utf8(text) {
                check_blob_path(&Job {
                    blob_hex: blob_hex.to_string(),
                    ..job.clone()
                });
            }
        });
        // …and the wire bytes it encodes.
        for_each_mutant(&job.blob_bytes().unwrap(), &mut rng, 800, |bytes| {
            check_blob_path(&Job::from_blob(job.job_id.clone(), bytes, 1, 10));
        });
    }
}
