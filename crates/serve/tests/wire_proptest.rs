//! Protocol hardening: whatever happens to the bytes, the wire codec either
//! round-trips a message exactly or reports a typed failure — never a
//! panic, never silent acceptance of damaged frames.

use fork_analytics::{BlockRecord, TimeSeries, TxRecord};
use fork_archive::ArchiveRecord;
use fork_primitives::{Address, H256, U256};
use fork_query::{
    FoundRecord, HeaderChain, Lookup, LookupOutput, Projection, Query, QueryOutput, QueryRange,
    ReorgEvent, SealedHeader, SideTip, TipHistoryOutput,
};
use fork_replay::Side;
use fork_serve::wire::{
    append_frame, decode_request, decode_response, encode_request, encode_response, read_frame,
    write_frame, DecodeError, ErrorKind, FrameError, FrameReader, Request, RequestBody, Response,
    ResponseBody, ServeMeta, SlowQueryRecord, StageBreakdown, WireError, MAX_FRAME_LEN,
};
use fork_telemetry::{HistogramSnapshot, SeriesRing};
use proptest::prelude::*;

fn side(n: u64) -> Side {
    if n.is_multiple_of(2) {
        Side::Eth
    } else {
        Side::Etc
    }
}

fn block(n: u64) -> BlockRecord {
    BlockRecord {
        network: side(n),
        number: n,
        hash: H256([(n % 251) as u8; 32]),
        timestamp: 1_469_000_000u64.wrapping_add(n.wrapping_mul(14)),
        difficulty: U256::from_u128(62_000_000_000_000 + n as u128),
        beneficiary: Address([(n % 31) as u8; 20]),
        gas_used: 21_000u64.wrapping_add(n),
        tx_count: (n % 7) as u32,
        ommer_count: (n % 3) as u32,
    }
}

fn tx(n: u64) -> TxRecord {
    TxRecord {
        network: side(n),
        hash: H256([(n % 253) as u8; 32]),
        timestamp: 1_469_000_000u64.wrapping_add(n.wrapping_mul(7)),
        is_contract: n.is_multiple_of(2),
        has_chain_id: n.is_multiple_of(3),
        value: U256::from_u64(n.wrapping_mul(1_000_000_007)),
    }
}

/// Deterministically expands a compact integer spec into a Query — the
/// vendored proptest has no `prop_oneof`, so variants come from modulus.
type QuerySpec = ((u64, u64), (u64, u64, u64));

fn query_from(spec: QuerySpec) -> Query {
    let ((kind, a), (b, proj, window)) = spec;
    let projection = match proj % 6 {
        0 => Projection::Blocks,
        1 => Projection::Txs,
        2 => Projection::InterArrival,
        3 => Projection::Difficulty,
        4 => Projection::TxRatioPerDay,
        _ => Projection::Echoes {
            window_days: window.max(1),
        },
    };
    let range = match kind % 3 {
        0 => QueryRange::All,
        1 => QueryRange::Blocks {
            first: a.min(b),
            last: a.max(b),
        },
        _ => QueryRange::Time {
            start: a.min(b),
            end: a.max(b),
        },
    };
    let side = if matches!(projection, Projection::TxRatioPerDay) {
        None
    } else {
        Some(side(a))
    };
    Query {
        side,
        range,
        projection,
    }
}

fn lookup_from(spec: QuerySpec) -> Lookup {
    let ((kind, a), (b, _, _)) = spec;
    match kind % 5 {
        0 => Lookup::BlockByHash {
            hash: H256([(a % 251) as u8; 32]),
        },
        1 => Lookup::TxByHash {
            hash: H256([(b % 253) as u8; 32]),
        },
        2 => Lookup::BlockByNumber {
            side: side(a),
            number: b,
        },
        3 => Lookup::TipHistory,
        _ => Lookup::Headers {
            side: side(a),
            first: a.min(b),
            last: a.max(b),
        },
    }
}

fn request_from(spec: (u64, u64, QuerySpec)) -> Request {
    let (id, kind, qspec) = spec;
    let body = match kind % 9 {
        0 => RequestBody::Query(query_from(qspec)),
        1 => RequestBody::Stats,
        2 => RequestBody::Meta,
        3 => RequestBody::Ping,
        4 => RequestBody::Lookup(lookup_from(qspec)),
        5 => RequestBody::ObsSeries,
        6 => RequestBody::ObsSlowLog,
        7 => RequestBody::Metrics,
        _ => RequestBody::Shutdown,
    };
    Request { id, body }
}

/// A deterministic series ring derived from the integer specs — mixed
/// per-sample value sets so decoding must handle sparse series.
fn series_ring_from(nums: &[u64], extra: &[u64]) -> SeriesRing {
    let mut ring = SeriesRing::new(1 + nums.len().max(extra.len()));
    for (i, &n) in nums.iter().enumerate() {
        let mut values = std::collections::BTreeMap::new();
        values.insert("connections".to_string(), (n % 1009) as f64);
        if let Some(&x) = extra.get(i) {
            values.insert(format!("p99_us.ep{}", x % 4), (x % 100_000) as f64 / 3.0);
        }
        ring.push(values);
    }
    ring
}

fn slow_log_from(nums: &[u64], extra: &[u64]) -> Vec<SlowQueryRecord> {
    nums.iter()
        .zip(extra)
        .map(|(&n, &x)| SlowQueryRecord {
            id: n,
            seq: x,
            endpoint: format!("ep{}", n % 11),
            total_us: n.wrapping_add(x),
            stages: StageBreakdown {
                read_us: n % 97,
                admit_us: x % 13,
                queue_us: n % 1_000,
                execute_us: x % 100_000,
                write_us: n % 77,
                cache_hits: x % 9,
                cache_misses: n % 5,
            },
        })
        .collect()
}

/// A side tip whose tip block (if any) genuinely lives on `s` — the wire
/// codec derives the decoded block's network from the framed side byte.
fn side_tip(s: Side, n: Option<u64>, reorgs: u64) -> SideTip {
    let tip = n.map(|n| {
        let mut b = block(n);
        b.network = s;
        b
    });
    SideTip {
        side: s,
        tip_seq: tip.as_ref().map(|_| n.unwrap_or(0).wrapping_mul(2)),
        blocks: n.unwrap_or(0),
        reorgs,
        tip,
    }
}

fn lookup_output_from(kind: u64, id: u64, nums: &[u64], extra: &[u64]) -> LookupOutput {
    match kind % 4 {
        0 => LookupOutput::Found(None),
        1 => {
            let n = nums.first().copied().unwrap_or(7);
            let record = if n.is_multiple_of(2) {
                ArchiveRecord::Block(block(n))
            } else {
                ArchiveRecord::Tx(tx(n))
            };
            LookupOutput::Found(Some(FoundRecord {
                seq: n.wrapping_mul(3),
                side: side(n),
                record,
            }))
        }
        2 => LookupOutput::Tips(TipHistoryOutput {
            eth: side_tip(Side::Eth, nums.first().copied(), nums.len() as u64),
            etc: side_tip(Side::Etc, extra.first().copied(), extra.len() as u64),
            reorgs: nums
                .iter()
                .zip(extra)
                .map(|(&n, &x)| ReorgEvent {
                    side: side(n),
                    seq: n,
                    number: x,
                    depth: 1 + n % 9,
                    timestamp: x.wrapping_add(n),
                })
                .collect(),
        }),
        _ => {
            let s = side(id);
            let headers = nums
                .iter()
                .map(|&n| {
                    let mut b = block(n);
                    b.network = s;
                    let payload = ArchiveRecord::Block(b).encode_payload(n);
                    let checksum = fork_archive::format::keccak_checksum(&payload);
                    SealedHeader {
                        seq: n,
                        payload,
                        checksum,
                    }
                })
                .collect();
            LookupOutput::Headers(HeaderChain {
                side: s,
                first: nums.first().copied().unwrap_or(0),
                last: nums.last().copied().unwrap_or(0),
                headers,
            })
        }
    }
}

fn response_from(spec: (u64, u64, Vec<u64>, Vec<u64>)) -> Response {
    let (id, kind, nums, extra) = spec;
    let body = match kind % 11 {
        0 => ResponseBody::Output(QueryOutput::Blocks(
            nums.iter().map(|&n| block(n)).collect(),
        )),
        1 => ResponseBody::Output(QueryOutput::Txs(nums.iter().map(|&n| tx(n)).collect())),
        2 => {
            let mut h = HistogramSnapshot::default();
            for &n in &nums {
                h.record(n);
            }
            ResponseBody::Output(QueryOutput::Histogram(Box::new(h)))
        }
        3 => ResponseBody::Output(QueryOutput::Series(TimeSeries {
            label: format!("series-{id}"),
            points: nums
                .iter()
                .zip(&extra)
                .map(|(&t, &v)| (t, v as f64 / 7.0))
                .collect(),
        })),
        4 => ResponseBody::Stats(format!(
            "{{\"schema\": \"fork-telemetry/v1\", \"n\": {id}}}"
        )),
        5 => ResponseBody::Meta(ServeMeta {
            blocks: nums.first().copied().unwrap_or(0),
            txs: extra.first().copied().unwrap_or(0),
            block_range: nums.first().map(|&lo| (lo, lo.wrapping_add(100))),
            time_range: extra.first().map(|&lo| (lo, lo.wrapping_add(1000))),
            format_version: (id % 17) as u16,
            checksum: id.wrapping_mul(0x9E37_79B9) as u32,
        }),
        6 => ResponseBody::Lookup(lookup_output_from(
            nums.first().copied().unwrap_or(id),
            id,
            &nums,
            &extra,
        )),
        7 => ResponseBody::ObsSeries(series_ring_from(&nums, &extra)),
        8 => ResponseBody::ObsSlowLog(slow_log_from(&nums, &extra)),
        9 => ResponseBody::Metrics(format!(
            "# TYPE serve_requests counter\nserve_requests {id}\n"
        )),
        _ => ResponseBody::Error(WireError {
            kind: match id % 6 {
                0 => ErrorKind::Overloaded,
                1 => ErrorKind::Backpressure,
                2 => ErrorKind::ShuttingDown,
                3 => ErrorKind::Unsupported,
                4 => ErrorKind::Archive,
                _ => ErrorKind::BadRequest,
            },
            detail: format!("detail {id}"),
        }),
    };
    Response { id, body }
}

/// Hands out `data` in reads of the given sizes (cycled, each at least one
/// byte) — a socket delivering a frame stream in arbitrary pieces.
struct ChunkedReader<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl std::io::Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.sizes[self.reads % self.sizes.len()].max(1);
        self.reads += 1;
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Accepts at most `cap` bytes per `write` call — a socket whose send buffer
/// is nearly full, so `write_all` has to come back for the rest.
struct ShortWriter {
    bytes: Vec<u8>,
    cap: usize,
}

impl std::io::Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.cap);
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #[test]
    fn frames_appended_to_one_buffer_come_back_in_order_from_any_chunking(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..400), 1..9),
        sizes in proptest::collection::vec(1usize..64, 1..12),
    ) {
        let mut stream = Vec::new();
        for payload in &payloads {
            append_frame(&mut stream, payload);
        }
        let mut socket = ChunkedReader { data: &stream, sizes: &sizes, reads: 0 };
        let mut frames = FrameReader::new();
        for payload in &payloads {
            let got = frames
                .poll_frame(&mut socket, std::time::Duration::from_secs(1))
                .expect("clean stream");
            prop_assert_eq!(got.as_ref(), Some(payload));
        }
        prop_assert!(!frames.mid_frame(), "bytes left over after the last frame");
        prop_assert!(socket.data.is_empty());
    }

    #[test]
    fn short_writes_do_not_tear_the_frame(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..5),
        cap in 1usize..8,
    ) {
        let mut w = ShortWriter { bytes: Vec::new(), cap };
        for payload in &payloads {
            write_frame(&mut w, payload).unwrap();
        }
        let mut stream = w.bytes.as_slice();
        for payload in &payloads {
            let got = read_frame(&mut stream).expect("frame opens");
            prop_assert_eq!(&got, payload);
        }
        prop_assert!(matches!(read_frame(&mut stream), Err(FrameError::Closed)));
    }

    #[test]
    fn requests_roundtrip(spec in (any::<u64>(), any::<u64>(), ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>(), any::<u64>())))) {
        let req = request_from(spec);
        let payload = encode_request(&req);
        prop_assert_eq!(decode_request(&payload), Ok(req));
    }

    #[test]
    fn responses_roundtrip(
        id in any::<u64>(),
        kind in any::<u64>(),
        nums in proptest::collection::vec(any::<u64>(), 0..24),
        extra in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let resp = response_from((id, kind, nums, extra));
        let payload = encode_response(&resp);
        prop_assert_eq!(decode_response(&payload), Ok(resp));
    }

    #[test]
    fn truncated_payloads_decode_to_typed_errors(
        id in any::<u64>(),
        kind in any::<u64>(),
        nums in proptest::collection::vec(any::<u64>(), 0..12),
        extra in proptest::collection::vec(any::<u64>(), 0..12),
        cut in any::<u64>(),
    ) {
        let payload = encode_response(&response_from((id, kind, nums, extra)));
        prop_assume!(payload.len() > 1);
        let cut = 1 + (cut as usize) % (payload.len() - 1);
        // Every proper prefix either fails typed or — if it happens to
        // parse — differs from nothing we assert; it must never panic.
        let _ = decode_response(&payload[..cut]);
        // Cutting the trailing byte specifically must be caught: either a
        // mid-field truncation or the trailing-bytes check repairs nothing.
        prop_assert!(decode_response(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn frame_roundtrip_and_single_byte_flip_dies_at_transport(
        spec in (any::<u64>(), any::<u64>(), ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>(), any::<u64>()))),
        flip_at in any::<u64>(),
        flip_bit in 0u32..8,
    ) {
        let req = request_from(spec);
        let payload = encode_request(&req);
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();

        // Clean frame round-trips.
        let got = read_frame(&mut frame.as_slice()).expect("clean frame opens");
        prop_assert_eq!(decode_request(&got), Ok(req));

        // Any single-bit flip beyond the length prefix dies at the
        // transport (checksum), or — if it hits the prefix — reads as a
        // short/oversized/incomplete frame. Never a silently wrong decode.
        let at = 4 + (flip_at as usize) % (frame.len() - 4);
        frame[at] ^= 1 << flip_bit;
        match read_frame(&mut frame.as_slice()) {
            Err(_) => {}
            Ok(opened) => prop_assert!(
                false,
                "flipped byte {at} still opened as {:?}",
                decode_request(&opened)
            ),
        }
    }

    #[test]
    fn length_prefix_flips_never_open_clean(
        spec in (any::<u64>(), any::<u64>(), ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>(), any::<u64>()))),
        flip_at in 0usize..4,
        flip_bit in 0u32..8,
    ) {
        let req = request_from(spec);
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_request(&req)).unwrap();
        frame[flip_at] ^= 1 << flip_bit;
        match read_frame(&mut frame.as_slice()) {
            // Shorter declared length: the sealed bytes no longer line up
            // with the checksum, or trailing garbage is left unread (the
            // caller treats both as fatal). Longer: EOF or the cap.
            Err(FrameError::Corrupt | FrameError::Closed | FrameError::Oversized(_)) => {}
            Err(e) => prop_assert!(false, "unexpected io error: {e}"),
            Ok(opened) => {
                // A shrunken length can still open only if the checksum of
                // the prefix collides — the seal makes that a non-event.
                prop_assert!(false, "resized frame opened: {opened:?}");
            }
        }
    }
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    // A hostile 4 GiB declared length must be refused from the prefix
    // alone — read_frame returns Oversized without buffering the body.
    let mut frame = Vec::new();
    frame.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    frame.extend_from_slice(&[0u8; 64]);
    match read_frame(&mut frame.as_slice()) {
        Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME_LEN + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }

    let mut huge = Vec::new();
    huge.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_frame(&mut huge.as_slice()),
        Err(FrameError::Oversized(_))
    ));
}

#[test]
fn unknown_tags_and_trailing_bytes_are_typed_errors() {
    let mut payload = encode_request(&Request {
        id: 9,
        body: RequestBody::Ping,
    });
    payload[8] = 0xEE; // request tag byte
    assert_eq!(decode_request(&payload), Err(DecodeError::UnknownTag(0xEE)));

    let mut trailing = encode_response(&Response {
        id: 9,
        body: ResponseBody::Pong,
    });
    trailing.push(0);
    assert!(matches!(
        decode_response(&trailing),
        Err(DecodeError::Malformed(_))
    ));

    assert_eq!(decode_request(&[1, 2, 3]), Err(DecodeError::Truncated));
}
