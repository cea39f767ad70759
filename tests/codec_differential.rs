//! Differential property tests for the two negotiated wire codecs.
//!
//! The JSON codec is the compatibility floor and the binary codec is the
//! production default, so the two must be observationally identical: any
//! `Request` or `Response` a client can legally send must decode to the
//! same value through either codec. These properties drive randomly
//! generated frames through both paths and require equality, then attack
//! the binary framing with truncations and single-byte garbles and
//! require every failure to surface as the typed `ServerError::Frame`
//! (which the daemon answers with `ErrorCode::BadFrame`) — never a panic,
//! never a hang, never a silent misparse of a short read.

use proptest::prelude::*;
use richnote_core::content::{ContentFeatures, ContentItem, ContentKind, Interaction, SocialTie};
use richnote_core::ids::{AlbumId, ArtistId, ContentId, PlaylistId, TrackId, UserId};
use richnote_obs::{SpanDecision, SpanRecord};
use richnote_pubsub::Topic;
use richnote_server::wire::{Delivery, ErrorCode, Observed, Request, Response, View};
use richnote_server::{codec_for, CodecKind, HistoryQuery, ServerError};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_interaction() -> impl Strategy<Value = Interaction> {
    (0u8..3, any::<f64>()).prop_map(|(tag, at)| match tag {
        0 => Interaction::Clicked { at },
        1 => Interaction::Hovered,
        _ => Interaction::NoActivity,
    })
}

fn arb_features() -> impl Strategy<Value = ContentFeatures> {
    (
        (0u8..4).prop_map(|t| {
            [SocialTie::None, SocialTie::Follows, SocialTie::Mutual, SocialTie::FavoriteArtist]
                [t as usize]
        }),
        (any::<f64>(), any::<f64>(), any::<f64>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(tie, (track_popularity, album_popularity, artist_popularity), (weekend, night))| {
                ContentFeatures {
                    tie,
                    track_popularity,
                    album_popularity,
                    artist_popularity,
                    weekend,
                    night,
                }
            },
        )
}

fn arb_item() -> impl Strategy<Value = ContentItem> {
    (
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<u64>(), 0u8..3),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<f64>(), any::<f64>()),
        arb_features(),
        arb_interaction(),
    )
        .prop_map(
            |(
                (id, recipient, has_sender, sender, kind),
                (track, album, artist),
                (arrival, track_secs),
                features,
                interaction,
            )| ContentItem {
                id: ContentId::new(id),
                recipient: UserId::new(recipient),
                sender: has_sender.then(|| UserId::new(sender)),
                kind: ContentKind::ALL[kind as usize],
                track: TrackId::new(track),
                album: AlbumId::new(album),
                artist: ArtistId::new(artist),
                arrival,
                track_secs,
                features,
                interaction,
            },
        )
}

fn arb_topic() -> impl Strategy<Value = Topic> {
    (0u8..3, any::<u64>()).prop_map(|(tag, id)| match tag {
        0 => Topic::FriendFeed(UserId::new(id)),
        1 => Topic::ArtistPage(ArtistId::new(id)),
        _ => Topic::Playlist(PlaylistId::new(id)),
    })
}

/// Short strings with code points from across the BMP (excluding
/// surrogates), exercising the UTF-8 length accounting of both codecs.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(1u32..0xD800, 0..12)
        .prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

fn arb_codec_name() -> impl Strategy<Value = Option<String>> {
    (0u8..3).prop_map(|tag| match tag {
        0 => None,
        1 => Some("json".to_string()),
        _ => Some("binary".to_string()),
    })
}

/// Index of a request's variant. Exhaustive on purpose (no `_` arm): a
/// new `Request` variant fails to compile here until it has an index, and
/// `arb_request` then panics until it has a generator for that index.
fn request_kind(req: &Request) -> usize {
    match req {
        Request::Hello { .. } => 0,
        Request::Subscribe { .. } => 1,
        Request::Publish { .. } => 2,
        Request::Tick { .. } => 3,
        Request::TickReport { .. } => 4,
        Request::Observe(_) => 5,
        Request::Checkpoint => 6,
        Request::Drain => 7,
        Request::Shutdown => 8,
    }
}
const REQUEST_KINDS: usize = 9;

/// [`request_kind`] for `View`.
fn view_kind(view: &View) -> usize {
    match view {
        View::Stats => 0,
        View::Health => 1,
        View::Alerts => 2,
        View::Query(_) => 3,
        View::Trace => 4,
        View::Flight => 5,
    }
}
const VIEW_KINDS: usize = 6;

fn arb_view() -> impl Strategy<Value = View> {
    (0..VIEW_KINDS).prop_flat_map(|kind| {
        let view = match kind {
            0 => Just(View::Stats).boxed(),
            1 => Just(View::Health).boxed(),
            2 => Just(View::Alerts).boxed(),
            3 => (
                arb_string(),
                prop::collection::vec((arb_string(), arb_string()), 0..4),
                any::<f64>(),
            )
                .prop_map(|(family, labels, window_secs)| {
                    View::Query(HistoryQuery { family, labels, window_secs })
                })
                .boxed(),
            4 => Just(View::Trace).boxed(),
            _ => Just(View::Flight).boxed(),
        };
        view.prop_map(move |view| {
            assert_eq!(view_kind(&view), kind, "arb_view generates no view of kind {kind}");
            view
        })
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0..REQUEST_KINDS).prop_flat_map(|kind| {
        let req = match kind {
            0 => (any::<u32>(), any::<u64>(), arb_codec_name())
                .prop_map(|(proto, session, codec)| Request::Hello { proto, session, codec })
                .boxed(),
            1 => (any::<u64>(), arb_topic())
                .prop_map(|(user, topic)| Request::Subscribe { user: UserId::new(user), topic })
                .boxed(),
            2 => (any::<u64>(), arb_topic(), arb_item(), (any::<bool>(), any::<u64>()))
                .prop_map(|(seq, topic, item, (traced, id))| Request::Publish {
                    seq,
                    topic,
                    item,
                    trace: traced.then_some(id),
                })
                .boxed(),
            3 => (0u32..u32::MAX).prop_map(|rounds| Request::Tick { rounds }).boxed(),
            4 => (0u32..u32::MAX).prop_map(|rounds| Request::TickReport { rounds }).boxed(),
            5 => arb_view().prop_map(Request::Observe).boxed(),
            6 => Just(Request::Checkpoint).boxed(),
            7 => Just(Request::Drain).boxed(),
            _ => Just(Request::Shutdown).boxed(),
        };
        req.prop_map(move |req| {
            assert_eq!(request_kind(&req), kind, "arb_request generates no request of kind {kind}");
            req
        })
    })
}

fn arb_delivery() -> impl Strategy<Value = Delivery> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u8>()).prop_map(
        |(round, user, content, level)| Delivery {
            round,
            user: UserId::new(user),
            content: ContentId::new(content),
            level,
        },
    )
}

/// Every "hot" response — the kinds the binary codec encodes natively.
/// The cold `Observed` answers ride a JSON escape hatch that is covered
/// by the codec's unit tests.
fn arb_hot_response() -> impl Strategy<Value = Response> {
    const CODES: [ErrorCode; 6] = [
        ErrorCode::ProtoMismatch,
        ErrorCode::Draining,
        ErrorCode::BadFrame,
        ErrorCode::HandshakeRequired,
        ErrorCode::CheckpointFailed,
        ErrorCode::Internal,
    ];
    (0usize..9).prop_flat_map(move |variant| match variant {
        0 => (any::<u32>(), any::<usize>(), any::<u64>(), arb_codec_name())
            .prop_map(|(proto, shards, resume_seq, codec)| Response::Hello {
                proto,
                shards,
                resume_seq,
                codec,
            })
            .boxed(),
        1 => Just(Response::Subscribed).boxed(),
        2 => any::<u64>().prop_map(|seq| Response::PubAck { seq }).boxed(),
        3 => (any::<u64>(), any::<u64>())
            .prop_map(|(rounds, selected)| Response::Ticked { rounds, selected })
            .boxed(),
        4 => (any::<u64>(), prop::collection::vec(arb_delivery(), 0..6))
            .prop_map(|(rounds, deliveries)| Response::TickReport { rounds, deliveries })
            .boxed(),
        5 => (any::<u64>(), any::<u64>())
            .prop_map(|(users, round)| Response::Checkpointed { users, round })
            .boxed(),
        6 => (any::<u64>(), any::<u64>(), any::<bool>())
            .prop_map(|(rounds, users, checkpointed)| Response::Drained {
                rounds,
                users,
                checkpointed,
            })
            .boxed(),
        7 => Just(Response::ShuttingDown).boxed(),
        _ => (0usize..6, arb_string())
            .prop_map(move |(code, message)| Response::Error { code: CODES[code], message })
            .boxed(),
    })
}

// ---------------------------------------------------------------------------
// Round-trip helpers
// ---------------------------------------------------------------------------

fn request_roundtrip(kind: CodecKind, req: &Request) -> Request {
    let mut codec = codec_for(kind);
    let mut buf = Vec::new();
    codec.write_request(&mut buf, req).expect("encode request");
    let mut cursor: &[u8] = &buf;
    let back =
        codec.read_request(&mut cursor).expect("decode request").expect("a frame was written");
    assert!(cursor.is_empty(), "{kind} codec left {} trailing byte(s)", cursor.len());
    back
}

fn response_roundtrip(kind: CodecKind, resp: &Response) -> Response {
    let mut codec = codec_for(kind);
    let mut buf = Vec::new();
    codec.write_response(&mut buf, resp).expect("encode response");
    let mut cursor: &[u8] = &buf;
    let back =
        codec.read_response(&mut cursor).expect("decode response").expect("a frame was written");
    assert!(cursor.is_empty(), "{kind} codec left {} trailing byte(s)", cursor.len());
    back
}

fn binary_request_frame(req: &Request) -> Vec<u8> {
    let mut codec = codec_for(CodecKind::Binary);
    let mut buf = Vec::new();
    codec.write_request(&mut buf, req).expect("encode request");
    buf
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every request decodes to the same value through either codec.
    #[test]
    fn requests_roundtrip_identically_through_both_codecs(req in arb_request()) {
        let via_json = request_roundtrip(CodecKind::Json, &req);
        let via_binary = request_roundtrip(CodecKind::Binary, &req);
        prop_assert_eq!(&via_json, &req);
        prop_assert_eq!(&via_binary, &req);
        prop_assert_eq!(via_json, via_binary);
    }

    /// Every hot response decodes to the same value through either codec.
    #[test]
    fn responses_roundtrip_identically_through_both_codecs(resp in arb_hot_response()) {
        let via_json = response_roundtrip(CodecKind::Json, &resp);
        let via_binary = response_roundtrip(CodecKind::Binary, &resp);
        prop_assert_eq!(&via_json, &resp);
        prop_assert_eq!(&via_binary, &resp);
        prop_assert_eq!(via_json, via_binary);
    }
}

/// The `Trace` view's answer — spans, one of each stage shape — decodes to
/// the same value through either codec.
#[test]
fn observed_trace_spans_roundtrip_identically_through_both_codecs() {
    let resp = Response::Observed(Observed::Trace {
        spans: vec![
            SpanRecord::publish(7, 1, 42),
            SpanRecord::matched(7, 1, 2),
            SpanRecord::queued(7, 0, 3, 5, 42),
            SpanRecord::selected(
                7,
                0,
                4,
                5,
                42,
                SpanDecision {
                    level: 3,
                    utility: 0.8,
                    gradient: 1.25e-5,
                    budget_remaining: 310_000,
                },
            ),
            SpanRecord::serialized(7, 0, 4, 42, 90_000),
            SpanRecord::acked(7, 1),
            SpanRecord::dropped(8, None),
        ],
        dropped: 3,
    });
    let via_json = response_roundtrip(CodecKind::Json, &resp);
    let via_binary = response_roundtrip(CodecKind::Binary, &resp);
    assert_eq!(via_json, resp);
    assert_eq!(via_binary, resp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A binary frame cut short at *every* possible point is a typed
    /// frame error — except the empty stream, which is a clean EOF.
    #[test]
    fn every_truncation_of_a_binary_frame_is_a_typed_frame_error(req in arb_request()) {
        let frame = binary_request_frame(&req);
        let mut codec = codec_for(CodecKind::Binary);
        for cut in 0..frame.len() {
            let mut cursor = &frame[..cut];
            let got = codec.read_request(&mut cursor);
            if cut == 0 {
                prop_assert!(
                    matches!(got, Ok(None)),
                    "empty stream must be clean EOF, got {got:?}"
                );
            } else {
                prop_assert!(
                    matches!(got, Err(ServerError::Frame(_))),
                    "truncation at {cut}/{} must be a Frame error, got {got:?}",
                    frame.len()
                );
            }
        }
    }

    /// Garbling any single byte of a binary frame never panics and never
    /// produces an error outside the typed `Frame` class: the decoder
    /// either still reads *some* frame or reports a bad one.
    #[test]
    fn garbled_binary_frames_fail_closed(
        req in arb_request(),
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut frame = binary_request_frame(&req);
        let idx = pos % frame.len();
        frame[idx] ^= mask;
        let mut codec = codec_for(CodecKind::Binary);
        let mut cursor: &[u8] = &frame;
        match codec.read_request(&mut cursor) {
            Ok(_) => {}
            Err(ServerError::Frame(_)) => {}
            Err(other) => prop_assert!(
                false,
                "garble at {idx} leaked a non-Frame error: {other:?}"
            ),
        }
    }
}

/// A deterministic corpus of malformed binary frames, each of which must
/// map to the typed `Frame` error the daemon reports as `BadFrame`.
#[test]
fn malformed_binary_corpus_yields_typed_frame_errors() {
    let corpus: &[(&str, Vec<u8>)] = &[
        ("zero-length frame (no tag byte)", vec![0x00]),
        ("unknown request tag", vec![0x01, 0xEE]),
        ("truncated varint length", vec![0x80]),
        ("varint length overflow", vec![0xFF; 11]),
        ("length past MAX_FRAME_BYTES", vec![0xFF, 0xFF, 0xFF, 0xFF, 0x7F]),
        ("tick without its rounds field", vec![0x01, 0x03]),
        ("publish tag with empty body", vec![0x01, 0x02]),
        ("trailing garbage after shutdown", vec![0x03, 0x08, 0x00, 0x00]),
        ("observe tag with no view", vec![0x01, 0x05]),
        ("observe tag with an unknown view", [&[0x07, 0x05][..], b"\"Nope\""].concat()),
    ];
    for (label, bytes) in corpus {
        let mut codec = codec_for(CodecKind::Binary);
        let mut cursor: &[u8] = bytes;
        let got = codec.read_request(&mut cursor);
        assert!(
            matches!(got, Err(ServerError::Frame(_))),
            "{label}: expected a typed Frame error, got {got:?}"
        );
    }
}
