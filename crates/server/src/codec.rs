//! Negotiated per-connection frame codecs.
//!
//! The frame layer is an object per connection — a [`FrameCodec`] — with
//! two implementations:
//!
//! * [`JsonCodec`]: the length-prefixed JSON framing of [`crate::wire`],
//!   the floor every peer can always fall back to;
//! * [`BinaryCodec`]: a compact varint-framed binary encoding that
//!   hand-codes the hot messages (`Publish`, `PubAck`, `Tick*`,
//!   `Subscribe`, `Hello`) with pre-sized scratch buffers and zero-copy
//!   slice decoding, and escapes the cold read path (`Observe` and its
//!   deeply nested `Observed` answers) into the canonical JSON payload
//!   inside a binary frame.
//!
//! # Negotiation
//!
//! The codec is negotiated inside the `Hello` exchange, which always uses
//! JSON framing; see [`negotiate`] for the exact matrix. Both sides
//! switch to the negotiated codec for every frame after the server's
//! `Hello` response. A peer that leaves the `codec` field out keeps
//! speaking JSON.
//!
//! # Binary frame layout
//!
//! ```text
//! +--------------------+------------+---------------------------+
//! | len: LEB128 varint | tag: u8    | body: len - 1 bytes       |
//! +--------------------+------------+---------------------------+
//! ```
//!
//! `len` counts the tag byte plus the body and is bounded by
//! [`MAX_FRAME_BYTES`]. Integers are LEB128 varints, floats are 8-byte
//! little-endian IEEE 754 bit patterns, booleans are one byte, options
//! are a presence byte followed by the value, strings are a varint
//! length followed by UTF-8 bytes. Enum variants are one-byte tags in
//! declaration order. The full byte layout is specified in DESIGN.md §12.
//!
//! Truncated, oversized, or garbled binary frames decode to the typed
//! [`ServerError::Frame`], which the server's connection loop answers
//! with `Error { code: BadFrame }` — exactly like a garbled JSON frame.

use crate::error::{ServerError, ServerResult};
use crate::wire::{
    encode_frame_payload, read_exact_retry, read_frame, write_frame_unflushed, Delivery, ErrorCode,
    Request, Response, MAX_FRAME_BYTES,
};
use richnote_core::content::{ContentFeatures, ContentItem, ContentKind, Interaction, SocialTie};
use richnote_core::ids::PlaylistId;
use richnote_core::{AlbumId, ArtistId, ContentId, TrackId, UserId};
use richnote_pubsub::Topic;
use std::fmt;
use std::io::{self, Read, Write};
use std::str::FromStr;

/// Which frame encoding a connection speaks. Ordered by richness:
/// [`CodecKind::Json`] is the floor every peer understands, so
/// negotiation is simply the [`Ord::min`] of the two preferences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CodecKind {
    /// Length-prefixed JSON — the handshake framing, and the fallback.
    Json,
    /// Varint-framed compact binary (this module).
    Binary,
}

impl CodecKind {
    /// The name carried in `Hello.codec` and accepted by `--codec`.
    pub fn wire_name(self) -> &'static str {
        match self {
            CodecKind::Json => "json",
            CodecKind::Binary => "binary",
        }
    }

    /// Parses a wire name; `None` for anything unrecognized (a future
    /// codec this build does not speak).
    pub fn from_wire_name(name: &str) -> Option<CodecKind> {
        match name {
            "json" => Some(CodecKind::Json),
            "binary" => Some(CodecKind::Binary),
            _ => None,
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl FromStr for CodecKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CodecKind::from_wire_name(s)
            .ok_or_else(|| format!("unknown codec {s:?} (expected \"json\" or \"binary\")"))
    }
}

// Manual serde impls (the config embeds a CodecKind) so the wire shape is
// the plain name string, and configs written before the codec existed
// deserialize to the default rather than failing.
impl serde::Serialize for CodecKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.wire_name().to_string())
    }
}

impl serde::Deserialize for CodecKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::String(s) => CodecKind::from_wire_name(s)
                .ok_or_else(|| serde::DeError::msg(format!("unknown codec {s:?}"))),
            _ => Err(serde::DeError::msg("expected codec name as a string")),
        }
    }

    fn if_missing() -> Option<Self> {
        // Pre-codec configs (capture headers, checkpoint configs) load
        // with today's default. Safe: the *allowed* codec only caps
        // negotiation, and every client still speaks JSON.
        Some(CodecKind::Binary)
    }
}

/// The negotiation matrix: the floor of what the server allows and what
/// the client offered. An absent or unrecognized client offer means JSON
/// (old clients, or clients from the future naming a codec this build
/// does not speak), so the result is always something both sides speak.
pub fn negotiate(server_allowed: CodecKind, client_offer: Option<&str>) -> CodecKind {
    let client = client_offer.and_then(CodecKind::from_wire_name).unwrap_or(CodecKind::Json);
    server_allowed.min(client)
}

/// One connection's frame encoder/decoder. Implementations own whatever
/// scratch they need (the binary codec reuses one buffer for every frame
/// in both directions), so a connection allocates O(1) regardless of how
/// many frames it moves.
///
/// Writes are *unflushed* — callers batch frames (pipelined publishes,
/// cumulative acks) and flush once. Reads return `Ok(None)` on a clean
/// EOF at a frame boundary and [`ServerError::Frame`] on anything
/// garbled, truncated, or oversized.
pub trait FrameCodec: Send {
    /// Which encoding this codec speaks.
    fn kind(&self) -> CodecKind;
    /// Encodes one request frame into `w`, unflushed.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and [`ServerError::Frame`] for oversized
    /// payloads.
    fn write_request(&mut self, w: &mut dyn Write, req: &Request) -> ServerResult<()>;
    /// Encodes one response frame into `w`, unflushed.
    ///
    /// # Errors
    ///
    /// As for [`FrameCodec::write_request`].
    fn write_response(&mut self, w: &mut dyn Write, resp: &Response) -> ServerResult<()>;
    /// Decodes one request frame; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, [`ServerError::Frame`] for malformed frames,
    /// and (JSON only) [`ServerError::ProtoMismatch`] for a bad version
    /// byte.
    fn read_request(&mut self, r: &mut dyn Read) -> ServerResult<Option<Request>>;
    /// Decodes one response frame; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// As for [`FrameCodec::read_request`].
    fn read_response(&mut self, r: &mut dyn Read) -> ServerResult<Option<Response>>;
}

/// A fresh codec object of the given kind.
pub fn codec_for(kind: CodecKind) -> Box<dyn FrameCodec> {
    match kind {
        CodecKind::Json => Box::new(JsonCodec::new()),
        CodecKind::Binary => Box::new(BinaryCodec::new()),
    }
}

/// The JSON framing behind the [`FrameCodec`] API: delegates to the
/// free functions in [`crate::wire`], which remain the handshake framing
/// and the capture subsystem's canonical encode point.
#[derive(Debug, Default)]
pub struct JsonCodec;

impl JsonCodec {
    /// Creates the JSON codec (stateless).
    pub fn new() -> Self {
        JsonCodec
    }
}

impl FrameCodec for JsonCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Json
    }

    fn write_request(&mut self, w: &mut dyn Write, req: &Request) -> ServerResult<()> {
        write_frame_unflushed(w, req)
    }

    fn write_response(&mut self, w: &mut dyn Write, resp: &Response) -> ServerResult<()> {
        write_frame_unflushed(w, resp)
    }

    fn read_request(&mut self, r: &mut dyn Read) -> ServerResult<Option<Request>> {
        read_frame(r)
    }

    fn read_response(&mut self, r: &mut dyn Read) -> ServerResult<Option<Response>> {
        read_frame(r)
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Request frame tags, in `Request` declaration order.
mod req_tag {
    pub const HELLO: u8 = 0;
    pub const SUBSCRIBE: u8 = 1;
    pub const PUBLISH: u8 = 2;
    pub const TICK: u8 = 3;
    pub const TICK_REPORT: u8 = 4;
    pub const OBSERVE: u8 = 5;
    pub const CHECKPOINT: u8 = 6;
    pub const DRAIN: u8 = 7;
    pub const SHUTDOWN: u8 = 8;
}

/// Response frame tags. Hot responses are hand-coded; the cold, deeply
/// nested `Observed` answers ride the [`resp_tag::JSON`] escape hatch
/// carrying the canonical JSON payload, so their wire shape has exactly
/// one source of truth ([`encode_frame_payload`]).
mod resp_tag {
    pub const HELLO: u8 = 0;
    pub const SUBSCRIBED: u8 = 1;
    pub const PUB_ACK: u8 = 2;
    pub const TICKED: u8 = 3;
    pub const TICK_REPORT: u8 = 4;
    pub const CHECKPOINTED: u8 = 5;
    pub const DRAINED: u8 = 6;
    pub const SHUTTING_DOWN: u8 = 7;
    pub const ERROR: u8 = 8;
    pub const JSON: u8 = 255;
}

/// The compact binary codec. One scratch buffer serves encode and decode
/// for the life of the connection; after the first few frames the hot
/// path allocates nothing.
#[derive(Debug, Default)]
pub struct BinaryCodec {
    buf: Vec<u8>,
}

impl BinaryCodec {
    /// Creates the binary codec with an empty scratch buffer.
    pub fn new() -> Self {
        BinaryCodec { buf: Vec::new() }
    }

    /// Frames and writes the encoded body sitting in `self.buf`.
    fn write_framed(&mut self, w: &mut dyn Write) -> ServerResult<()> {
        if self.buf.len() as u64 > u64::from(MAX_FRAME_BYTES) {
            return Err(ServerError::Frame(format!(
                "frame of {} bytes exceeds MAX_FRAME_BYTES",
                self.buf.len()
            )));
        }
        let mut head = [0u8; 10];
        let n = varint_into(&mut head, self.buf.len() as u64);
        w.write_all(&head[..n])?;
        w.write_all(&self.buf)?;
        Ok(())
    }

    /// Reads one framed body into `self.buf`; `Ok(false)` on clean EOF.
    fn read_framed(&mut self, r: &mut dyn Read) -> ServerResult<bool> {
        let len = match read_len_varint(r)? {
            None => return Ok(false),
            Some(len) => len,
        };
        if len > u64::from(MAX_FRAME_BYTES) {
            return Err(ServerError::Frame(format!("frame length {len} exceeds limit")));
        }
        self.buf.clear();
        self.buf.resize(len as usize, 0);
        read_exact_retry(r, &mut self.buf)
            .map_err(|e| ServerError::Frame(format!("truncated binary frame: {e}")))?;
        Ok(true)
    }
}

impl FrameCodec for BinaryCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Binary
    }

    fn write_request(&mut self, w: &mut dyn Write, req: &Request) -> ServerResult<()> {
        self.buf.clear();
        enc_request(&mut self.buf, req)?;
        self.write_framed(w)
    }

    fn write_response(&mut self, w: &mut dyn Write, resp: &Response) -> ServerResult<()> {
        self.buf.clear();
        enc_response(&mut self.buf, resp)?;
        self.write_framed(w)
    }

    fn read_request(&mut self, r: &mut dyn Read) -> ServerResult<Option<Request>> {
        if !self.read_framed(r)? {
            return Ok(None);
        }
        let mut s: &[u8] = &self.buf;
        let req = dec_request(&mut s)?;
        expect_consumed(s)?;
        Ok(Some(req))
    }

    fn read_response(&mut self, r: &mut dyn Read) -> ServerResult<Option<Response>> {
        if !self.read_framed(r)? {
            return Ok(None);
        }
        let mut s: &[u8] = &self.buf;
        let resp = dec_response(&mut s)?;
        expect_consumed(s)?;
        Ok(Some(resp))
    }
}

// --- primitive encoders ---

/// Appends `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encodes `v` as a LEB128 varint into a stack buffer; returns the length.
fn varint_into(buf: &mut [u8; 10], mut v: u64) -> usize {
    let mut i = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf[i] = byte;
            return i + 1;
        }
        buf[i] = byte | 0x80;
        i += 1;
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_varint(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_varint(out, v);
        }
        None => out.push(0),
    }
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
        None => out.push(0),
    }
}

// --- primitive decoders (cursor over a borrowed slice; zero-copy until a
// --- String field forces ownership) ---

fn bad(detail: impl fmt::Display) -> ServerError {
    ServerError::Frame(format!("bad binary frame: {detail}"))
}

fn take<'a>(s: &mut &'a [u8], n: usize) -> ServerResult<&'a [u8]> {
    if s.len() < n {
        return Err(bad(format!("truncated (need {n} bytes, have {})", s.len())));
    }
    let (head, tail) = s.split_at(n);
    *s = tail;
    Ok(head)
}

fn get_u8(s: &mut &[u8]) -> ServerResult<u8> {
    Ok(take(s, 1)?[0])
}

fn get_varint(s: &mut &[u8]) -> ServerResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = get_u8(s).map_err(|_| bad("truncated varint"))?;
        if shift >= 63 && byte > 1 {
            return Err(bad("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(bad("varint overflows u64"));
        }
    }
}

fn get_u32v(s: &mut &[u8]) -> ServerResult<u32> {
    u32::try_from(get_varint(s)?).map_err(|_| bad("varint out of range for u32"))
}

fn get_usizev(s: &mut &[u8]) -> ServerResult<usize> {
    usize::try_from(get_varint(s)?).map_err(|_| bad("varint out of range for usize"))
}

fn get_f64(s: &mut &[u8]) -> ServerResult<f64> {
    let bytes = take(s, 8)?;
    Ok(f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("took 8 bytes"))))
}

fn get_bool(s: &mut &[u8]) -> ServerResult<bool> {
    match get_u8(s)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad(format!("bool byte {other}"))),
    }
}

fn get_str(s: &mut &[u8]) -> ServerResult<String> {
    let len = get_usizev(s)?;
    if len > s.len() {
        return Err(bad(format!("string length {len} exceeds remaining frame ({})", s.len())));
    }
    let bytes = take(s, len)?;
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|e| bad(format!("string not UTF-8: {e}")))
}

fn get_opt_varint(s: &mut &[u8]) -> ServerResult<Option<u64>> {
    match get_u8(s)? {
        0 => Ok(None),
        1 => Ok(Some(get_varint(s)?)),
        other => Err(bad(format!("presence byte {other}"))),
    }
}

fn get_opt_str(s: &mut &[u8]) -> ServerResult<Option<String>> {
    match get_u8(s)? {
        0 => Ok(None),
        1 => Ok(Some(get_str(s)?)),
        other => Err(bad(format!("presence byte {other}"))),
    }
}

fn expect_consumed(s: &[u8]) -> ServerResult<()> {
    if s.is_empty() {
        Ok(())
    } else {
        Err(bad(format!("{} trailing byte(s) after message", s.len())))
    }
}

/// Reads the leading length varint from the stream, retrying
/// `Interrupted`; `Ok(None)` only on EOF before the *first* byte (a clean
/// frame boundary). EOF mid-varint is a truncation error.
fn read_len_varint(r: &mut dyn Read) -> ServerResult<Option<u64>> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let mut v = u64::from(byte[0] & 0x7F);
    let mut shift = 7u32;
    let mut more = byte[0] & 0x80 != 0;
    while more {
        if shift > 63 {
            return Err(bad("frame length varint overflows u64"));
        }
        read_exact_retry(r, &mut byte)
            .map_err(|e| ServerError::Frame(format!("truncated frame length: {e}")))?;
        v |= u64::from(byte[0] & 0x7F) << shift;
        more = byte[0] & 0x80 != 0;
        shift += 7;
    }
    Ok(Some(v))
}

// --- protocol-type encoders/decoders ---

fn enc_topic(out: &mut Vec<u8>, topic: &Topic) {
    match topic {
        Topic::FriendFeed(u) => {
            out.push(0);
            put_varint(out, u.value());
        }
        Topic::ArtistPage(a) => {
            out.push(1);
            put_varint(out, a.value());
        }
        Topic::Playlist(p) => {
            out.push(2);
            put_varint(out, p.value());
        }
    }
}

fn dec_topic(s: &mut &[u8]) -> ServerResult<Topic> {
    match get_u8(s)? {
        0 => Ok(Topic::FriendFeed(UserId::new(get_varint(s)?))),
        1 => Ok(Topic::ArtistPage(ArtistId::new(get_varint(s)?))),
        2 => Ok(Topic::Playlist(PlaylistId::new(get_varint(s)?))),
        tag => Err(bad(format!("topic tag {tag}"))),
    }
}

fn enc_item(out: &mut Vec<u8>, item: &ContentItem) {
    put_varint(out, item.id.value());
    put_varint(out, item.recipient.value());
    put_opt_varint(out, item.sender.map(|u| u.value()));
    out.push(match item.kind {
        ContentKind::FriendFeed => 0,
        ContentKind::AlbumRelease => 1,
        ContentKind::PlaylistUpdate => 2,
    });
    put_varint(out, item.track.value());
    put_varint(out, item.album.value());
    put_varint(out, item.artist.value());
    put_f64(out, item.arrival);
    put_f64(out, item.track_secs);
    out.push(match item.features.tie {
        SocialTie::None => 0,
        SocialTie::Follows => 1,
        SocialTie::Mutual => 2,
        SocialTie::FavoriteArtist => 3,
    });
    put_f64(out, item.features.track_popularity);
    put_f64(out, item.features.album_popularity);
    put_f64(out, item.features.artist_popularity);
    put_bool(out, item.features.weekend);
    put_bool(out, item.features.night);
    match item.interaction {
        Interaction::Clicked { at } => {
            out.push(0);
            put_f64(out, at);
        }
        Interaction::Hovered => out.push(1),
        Interaction::NoActivity => out.push(2),
    }
}

fn dec_item(s: &mut &[u8]) -> ServerResult<ContentItem> {
    let id = ContentId::new(get_varint(s)?);
    let recipient = UserId::new(get_varint(s)?);
    let sender = get_opt_varint(s)?.map(UserId::new);
    let kind = match get_u8(s)? {
        0 => ContentKind::FriendFeed,
        1 => ContentKind::AlbumRelease,
        2 => ContentKind::PlaylistUpdate,
        tag => return Err(bad(format!("content kind tag {tag}"))),
    };
    let track = TrackId::new(get_varint(s)?);
    let album = AlbumId::new(get_varint(s)?);
    let artist = ArtistId::new(get_varint(s)?);
    let arrival = get_f64(s)?;
    let track_secs = get_f64(s)?;
    let tie = match get_u8(s)? {
        0 => SocialTie::None,
        1 => SocialTie::Follows,
        2 => SocialTie::Mutual,
        3 => SocialTie::FavoriteArtist,
        tag => return Err(bad(format!("social tie tag {tag}"))),
    };
    let track_popularity = get_f64(s)?;
    let album_popularity = get_f64(s)?;
    let artist_popularity = get_f64(s)?;
    let weekend = get_bool(s)?;
    let night = get_bool(s)?;
    let interaction = match get_u8(s)? {
        0 => Interaction::Clicked { at: get_f64(s)? },
        1 => Interaction::Hovered,
        2 => Interaction::NoActivity,
        tag => return Err(bad(format!("interaction tag {tag}"))),
    };
    Ok(ContentItem {
        id,
        recipient,
        sender,
        kind,
        track,
        album,
        artist,
        arrival,
        track_secs,
        features: ContentFeatures {
            tie,
            track_popularity,
            album_popularity,
            artist_popularity,
            weekend,
            night,
        },
        interaction,
    })
}

fn enc_request(out: &mut Vec<u8>, req: &Request) -> ServerResult<()> {
    match req {
        Request::Hello { proto, session, codec } => {
            out.push(req_tag::HELLO);
            put_varint(out, u64::from(*proto));
            put_varint(out, *session);
            put_opt_str(out, codec.as_deref());
        }
        Request::Subscribe { user, topic } => {
            out.push(req_tag::SUBSCRIBE);
            put_varint(out, user.value());
            enc_topic(out, topic);
        }
        Request::Publish { seq, topic, item, trace } => {
            out.push(req_tag::PUBLISH);
            put_varint(out, *seq);
            enc_topic(out, topic);
            enc_item(out, item);
            put_opt_varint(out, *trace);
        }
        Request::Tick { rounds } => {
            out.push(req_tag::TICK);
            put_varint(out, u64::from(*rounds));
        }
        Request::TickReport { rounds } => {
            out.push(req_tag::TICK_REPORT);
            put_varint(out, u64::from(*rounds));
        }
        // The read path is cold: the view rides as its canonical JSON, so
        // a new view costs this codec nothing.
        Request::Observe(view) => {
            out.push(req_tag::OBSERVE);
            out.extend_from_slice(&encode_frame_payload(view)?);
        }
        Request::Checkpoint => out.push(req_tag::CHECKPOINT),
        Request::Drain => out.push(req_tag::DRAIN),
        Request::Shutdown => out.push(req_tag::SHUTDOWN),
    }
    Ok(())
}

/// Decodes the JSON text filling the rest of the frame body.
fn dec_json_rest<T: serde::Deserialize>(s: &mut &[u8]) -> ServerResult<T> {
    let text = std::str::from_utf8(s).map_err(|e| bad(format!("escape not UTF-8: {e}")))?;
    let msg =
        serde_json::from_str(text).map_err(|e| bad(format!("bad JSON-escaped payload: {e}")))?;
    *s = &[];
    Ok(msg)
}

fn dec_request(s: &mut &[u8]) -> ServerResult<Request> {
    match get_u8(s).map_err(|_| bad("empty frame body"))? {
        req_tag::HELLO => Ok(Request::Hello {
            proto: get_u32v(s)?,
            session: get_varint(s)?,
            codec: get_opt_str(s)?,
        }),
        req_tag::SUBSCRIBE => {
            Ok(Request::Subscribe { user: UserId::new(get_varint(s)?), topic: dec_topic(s)? })
        }
        req_tag::PUBLISH => Ok(Request::Publish {
            seq: get_varint(s)?,
            topic: dec_topic(s)?,
            item: dec_item(s)?,
            trace: get_opt_varint(s)?,
        }),
        req_tag::TICK => Ok(Request::Tick { rounds: get_u32v(s)? }),
        req_tag::TICK_REPORT => Ok(Request::TickReport { rounds: get_u32v(s)? }),
        req_tag::OBSERVE => Ok(Request::Observe(dec_json_rest(s)?)),
        req_tag::CHECKPOINT => Ok(Request::Checkpoint),
        req_tag::DRAIN => Ok(Request::Drain),
        req_tag::SHUTDOWN => Ok(Request::Shutdown),
        tag => Err(bad(format!("unknown request tag {tag}"))),
    }
}

fn enc_error_code(out: &mut Vec<u8>, code: ErrorCode) {
    out.push(match code {
        ErrorCode::ProtoMismatch => 0,
        ErrorCode::Draining => 1,
        ErrorCode::BadFrame => 2,
        ErrorCode::HandshakeRequired => 3,
        ErrorCode::CheckpointFailed => 4,
        ErrorCode::Internal => 5,
    });
}

fn dec_error_code(s: &mut &[u8]) -> ServerResult<ErrorCode> {
    match get_u8(s)? {
        0 => Ok(ErrorCode::ProtoMismatch),
        1 => Ok(ErrorCode::Draining),
        2 => Ok(ErrorCode::BadFrame),
        3 => Ok(ErrorCode::HandshakeRequired),
        4 => Ok(ErrorCode::CheckpointFailed),
        5 => Ok(ErrorCode::Internal),
        tag => Err(bad(format!("error code tag {tag}"))),
    }
}

fn enc_response(out: &mut Vec<u8>, resp: &Response) -> ServerResult<()> {
    match resp {
        Response::Hello { proto, shards, resume_seq, codec } => {
            out.push(resp_tag::HELLO);
            put_varint(out, u64::from(*proto));
            put_varint(out, *shards as u64);
            put_varint(out, *resume_seq);
            put_opt_str(out, codec.as_deref());
        }
        Response::Subscribed => out.push(resp_tag::SUBSCRIBED),
        Response::PubAck { seq } => {
            out.push(resp_tag::PUB_ACK);
            put_varint(out, *seq);
        }
        Response::Ticked { rounds, selected } => {
            out.push(resp_tag::TICKED);
            put_varint(out, *rounds);
            put_varint(out, *selected);
        }
        Response::TickReport { rounds, deliveries } => {
            out.push(resp_tag::TICK_REPORT);
            put_varint(out, *rounds);
            put_varint(out, deliveries.len() as u64);
            for d in deliveries {
                put_varint(out, d.round);
                put_varint(out, d.user.value());
                put_varint(out, d.content.value());
                out.push(d.level);
            }
        }
        Response::Checkpointed { users, round } => {
            out.push(resp_tag::CHECKPOINTED);
            put_varint(out, *users);
            put_varint(out, *round);
        }
        Response::Drained { rounds, users, checkpointed } => {
            out.push(resp_tag::DRAINED);
            put_varint(out, *rounds);
            put_varint(out, *users);
            put_bool(out, *checkpointed);
        }
        Response::ShuttingDown => out.push(resp_tag::SHUTTING_DOWN),
        Response::Error { code, message } => {
            out.push(resp_tag::ERROR);
            enc_error_code(out, *code);
            put_str(out, message);
        }
        // Cold, deeply nested observability payloads: escape to the
        // canonical JSON bytes so there is exactly one serialization of
        // record, and every future view lands in both codecs for free.
        Response::Observed(_) => {
            out.push(resp_tag::JSON);
            out.extend_from_slice(&encode_frame_payload(resp)?);
        }
    }
    Ok(())
}

fn dec_response(s: &mut &[u8]) -> ServerResult<Response> {
    match get_u8(s).map_err(|_| bad("empty frame body"))? {
        resp_tag::HELLO => Ok(Response::Hello {
            proto: get_u32v(s)?,
            shards: get_usizev(s)?,
            resume_seq: get_varint(s)?,
            codec: get_opt_str(s)?,
        }),
        resp_tag::SUBSCRIBED => Ok(Response::Subscribed),
        resp_tag::PUB_ACK => Ok(Response::PubAck { seq: get_varint(s)? }),
        resp_tag::TICKED => {
            Ok(Response::Ticked { rounds: get_varint(s)?, selected: get_varint(s)? })
        }
        resp_tag::TICK_REPORT => {
            let rounds = get_varint(s)?;
            let count = get_usizev(s)?;
            // Cap the pre-allocation by what the frame could possibly
            // hold (≥ 4 bytes per delivery), so a forged count cannot
            // balloon memory before the truncation error surfaces.
            let mut deliveries = Vec::with_capacity(count.min(s.len() / 4 + 1));
            for _ in 0..count {
                deliveries.push(Delivery {
                    round: get_varint(s)?,
                    user: UserId::new(get_varint(s)?),
                    content: ContentId::new(get_varint(s)?),
                    level: get_u8(s)?,
                });
            }
            Ok(Response::TickReport { rounds, deliveries })
        }
        resp_tag::CHECKPOINTED => {
            Ok(Response::Checkpointed { users: get_varint(s)?, round: get_varint(s)? })
        }
        resp_tag::DRAINED => Ok(Response::Drained {
            rounds: get_varint(s)?,
            users: get_varint(s)?,
            checkpointed: get_bool(s)?,
        }),
        resp_tag::SHUTTING_DOWN => Ok(Response::ShuttingDown),
        resp_tag::ERROR => Ok(Response::Error { code: dec_error_code(s)?, message: get_str(s)? }),
        resp_tag::JSON => dec_json_rest(s),
        tag => Err(bad(format!("unknown response tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ShortReader;
    use crate::wire::{BuildInfo, HealthReport, Observed, StatsReply, View, PROTO_VERSION};
    use richnote_obs::{HistoryQuery, SloStatus, SpanRecord};

    fn sample_item() -> ContentItem {
        ContentItem {
            id: ContentId::new(9),
            recipient: UserId::new(3),
            sender: Some(UserId::new(4)),
            kind: ContentKind::FriendFeed,
            track: TrackId::new(1),
            album: AlbumId::new(2),
            artist: ArtistId::new(3),
            arrival: 120.0,
            track_secs: 240.0,
            features: ContentFeatures {
                tie: SocialTie::Mutual,
                track_popularity: 81.0,
                album_popularity: 64.0,
                artist_popularity: 99.5,
                weekend: true,
                night: false,
            },
            interaction: Interaction::Clicked { at: 9000.5 },
        }
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello { proto: PROTO_VERSION, session: 99, codec: Some("binary".into()) },
            Request::Hello { proto: PROTO_VERSION, session: 0, codec: None },
            Request::Subscribe { user: UserId::new(7), topic: Topic::FriendFeed(UserId::new(7)) },
            Request::Subscribe {
                user: UserId::new(8),
                topic: Topic::ArtistPage(ArtistId::new(1 << 40)),
            },
            Request::Subscribe { user: UserId::new(9), topic: Topic::Playlist(PlaylistId::new(2)) },
            Request::Publish {
                seq: 4,
                topic: Topic::FriendFeed(UserId::new(3)),
                item: sample_item(),
                trace: Some(0xABCD_EF01_2345_6789),
            },
            Request::Publish {
                seq: u64::MAX,
                topic: Topic::FriendFeed(UserId::new(3)),
                item: ContentItem {
                    sender: None,
                    interaction: Interaction::Hovered,
                    ..sample_item()
                },
                trace: None,
            },
            Request::Tick { rounds: 3 },
            Request::TickReport { rounds: u32::MAX },
            Request::Observe(View::Stats),
            Request::Observe(View::Health),
            Request::Observe(View::Alerts),
            Request::Observe(View::Query(HistoryQuery {
                family: "richnote_utility_total".into(),
                labels: vec![
                    ("policy".into(), "RichNote".into()),
                    ("connectivity".into(), "wifi".into()),
                ],
                window_secs: 60.0,
            })),
            // richnote-top asks for "the whole run" this way.
            Request::Observe(View::Query(HistoryQuery {
                family: "richnote_pubs_total".into(),
                labels: vec![],
                window_secs: f64::MAX,
            })),
            Request::Observe(View::Trace),
            Request::Observe(View::Flight),
            Request::Checkpoint,
            Request::Drain,
            Request::Shutdown,
        ]
    }

    fn hot_responses() -> Vec<Response> {
        vec![
            Response::Hello { proto: 4, shards: 4, resume_seq: 17, codec: Some("binary".into()) },
            Response::Hello { proto: 4, shards: 1, resume_seq: 0, codec: None },
            Response::Subscribed,
            Response::PubAck { seq: 123_456_789 },
            Response::Ticked { rounds: 8, selected: 42 },
            Response::TickReport {
                rounds: 2,
                deliveries: vec![
                    Delivery {
                        round: 1,
                        user: UserId::new(5),
                        content: ContentId::new(6),
                        level: 3,
                    },
                    Delivery {
                        round: 2,
                        user: UserId::new(7),
                        content: ContentId::new(8),
                        level: 0,
                    },
                ],
            },
            Response::Checkpointed { users: 10, round: 20 },
            Response::Drained { rounds: 30, users: 40, checkpointed: true },
            Response::ShuttingDown,
            Response::Error { code: ErrorCode::Draining, message: "drain in progress".into() },
        ]
    }

    #[test]
    fn binary_requests_roundtrip() {
        let mut codec = BinaryCodec::new();
        let mut buf = Vec::new();
        for req in &all_requests() {
            codec.write_request(&mut buf, req).unwrap();
        }
        let mut cursor: &[u8] = &buf;
        for want in &all_requests() {
            let got = codec.read_request(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(codec.read_request(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn binary_hot_responses_roundtrip() {
        let mut codec = BinaryCodec::new();
        let mut buf = Vec::new();
        for resp in &hot_responses() {
            codec.write_response(&mut buf, resp).unwrap();
        }
        let mut cursor: &[u8] = &buf;
        for want in &hot_responses() {
            let got = codec.read_response(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(codec.read_response(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn cold_responses_ride_the_json_escape_and_roundtrip() {
        let mut reg = richnote_obs::Registry::new();
        let c = reg.counter("richnote_pubs_total", "pubs", &[("shard", "0")]);
        reg.inc(c, 5);
        let resps: Vec<Response> = vec![
            Observed::Stats(StatsReply {
                snapshot: reg.snapshot(),
                uptime_secs: 12,
                build: BuildInfo::current(),
            }),
            Observed::Health(HealthReport {
                status: SloStatus::Ok,
                uptime_secs: 3,
                shards_alive: 2,
                shards_total: 2,
                slos: vec![],
                alerts_firing: 0,
                watchdog: vec![],
            }),
            Observed::Alerts(crate::wire::AlertsReply {
                alerts: vec![richnote_obs::AlertSnapshot {
                    rule: "shed_rate".into(),
                    state: richnote_obs::AlertState::Pending,
                    since_secs: 30.0,
                    value: Some(0.08),
                    threshold: 0.05,
                }],
                firing: 0,
                pending: 1,
                timeline: vec![],
                events_dropped: 2,
                watchdog: vec![richnote_obs::WatchdogVerdict {
                    shard: 1,
                    problem: "starved".into(),
                    stalled_secs: 12.0,
                    rounds_done: 3,
                    rounds_expected: 8,
                }],
                last_incident: None,
            }),
            Observed::Trace {
                spans: vec![SpanRecord::serialized(7, 0, 3, 42, 90_000)],
                dropped: 1,
            },
            Observed::Flight { dumps: vec![] },
            Observed::Query({
                let mut hist = richnote_obs::MetricsHistory::new(4);
                hist.record(0.0, reg.snapshot());
                reg.inc(c, 7);
                hist.record(10.0, reg.snapshot());
                hist.query(&HistoryQuery {
                    family: "richnote_pubs_total".into(),
                    labels: vec![],
                    window_secs: 30.0,
                })
            }),
        ]
        .into_iter()
        .map(Response::Observed)
        .collect();
        let mut codec = BinaryCodec::new();
        let mut buf = Vec::new();
        for r in &resps {
            codec.write_response(&mut buf, r).unwrap();
        }
        // The escape tag carries the canonical JSON payload verbatim.
        assert!(buf.windows(1).any(|w| w[0] == resp_tag::JSON));
        let mut cursor: &[u8] = &buf;
        for want in &resps {
            let got = codec.read_response(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json_for_publishes() {
        let req = Request::Publish {
            seq: 4,
            topic: Topic::FriendFeed(UserId::new(3)),
            item: sample_item(),
            trace: Some(7),
        };
        let mut bin = Vec::new();
        BinaryCodec::new().write_request(&mut bin, &req).unwrap();
        let mut json = Vec::new();
        JsonCodec::new().write_request(&mut json, &req).unwrap();
        assert!(
            bin.len() * 3 < json.len(),
            "binary ({}) should be under a third of JSON ({})",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn binary_frames_survive_short_reads() {
        let mut codec = BinaryCodec::new();
        let mut buf = Vec::new();
        for i in 0..5u32 {
            codec.write_request(&mut buf, &Request::Tick { rounds: i }).unwrap();
        }
        let mut r = ShortReader::new(&buf[..], 3);
        for i in 0..5u32 {
            let got = codec.read_request(&mut r).unwrap().unwrap();
            assert_eq!(got, Request::Tick { rounds: i });
        }
        assert!(codec.read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_binary_frame_is_a_typed_frame_error() {
        let mut codec = BinaryCodec::new();
        let mut buf = Vec::new();
        codec
            .write_request(
                &mut buf,
                &Request::Publish {
                    seq: 1,
                    topic: Topic::FriendFeed(UserId::new(1)),
                    item: sample_item(),
                    trace: None,
                },
            )
            .unwrap();
        // Cut the frame at every possible byte boundary: each prefix must
        // fail as Frame (or read as clean EOF for the empty prefix).
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            match codec.read_request(&mut cursor) {
                Err(ServerError::Frame(_)) => {}
                other => panic!("cut at {cut}: expected Frame error, got {other:?}"),
            }
        }
        let mut empty: &[u8] = &[];
        assert!(codec.read_request(&mut empty).unwrap().is_none());
    }

    #[test]
    fn garbled_tags_are_typed_frame_errors() {
        let mut codec = BinaryCodec::new();
        // Unknown request tag.
        let frame = [1u8, 200];
        assert!(matches!(codec.read_request(&mut &frame[..]), Err(ServerError::Frame(_))));
        // Unknown topic tag inside Subscribe.
        let frame = [3u8, req_tag::SUBSCRIBE, 7, 9];
        assert!(matches!(codec.read_request(&mut &frame[..]), Err(ServerError::Frame(_))));
        // Trailing garbage after a well-formed message.
        let frame = [3u8, req_tag::CHECKPOINT, 0, 0];
        assert!(matches!(codec.read_request(&mut &frame[..]), Err(ServerError::Frame(_))));
        // Bad presence byte in Hello's codec option.
        let frame = [4u8, req_tag::HELLO, 2, 9, 7];
        assert!(matches!(codec.read_request(&mut &frame[..]), Err(ServerError::Frame(_))));
        // Bad JSON behind the escape tag, in either direction.
        let frame = [4u8, resp_tag::JSON, b'{', b'x', b'}'];
        assert!(matches!(codec.read_response(&mut &frame[..]), Err(ServerError::Frame(_))));
        let frame = [4u8, req_tag::OBSERVE, b'{', b'x', b'}'];
        assert!(matches!(codec.read_request(&mut &frame[..]), Err(ServerError::Frame(_))));
    }

    #[test]
    fn oversized_binary_length_is_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(MAX_FRAME_BYTES) + 1);
        let mut codec = BinaryCodec::new();
        assert!(matches!(codec.read_request(&mut &buf[..]), Err(ServerError::Frame(_))));
        // A length varint that overflows u64 is also typed, not a panic.
        let huge = [0xFFu8; 11];
        assert!(matches!(codec.read_request(&mut &huge[..]), Err(ServerError::Frame(_))));
    }

    #[test]
    fn varints_roundtrip_at_boundaries() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s: &[u8] = &buf;
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
            let mut head = [0u8; 10];
            let n = varint_into(&mut head, v);
            assert_eq!(&head[..n], &buf[..]);
        }
    }

    #[test]
    fn negotiation_matrix() {
        use CodecKind::{Binary, Json};
        // Server allows binary: binary-capable clients get it, everyone
        // else (old, explicit-json, or from-the-future) falls back.
        assert_eq!(negotiate(Binary, Some("binary")), Binary);
        assert_eq!(negotiate(Binary, Some("json")), Json);
        assert_eq!(negotiate(Binary, None), Json);
        assert_eq!(negotiate(Binary, Some("zstd-frames")), Json);
        // Server pinned to JSON: nothing the client says changes that.
        assert_eq!(negotiate(Json, Some("binary")), Json);
        assert_eq!(negotiate(Json, Some("json")), Json);
        assert_eq!(negotiate(Json, None), Json);
    }

    #[test]
    fn codec_kind_names_parse_and_serialize() {
        assert_eq!("json".parse::<CodecKind>().unwrap(), CodecKind::Json);
        assert_eq!("binary".parse::<CodecKind>().unwrap(), CodecKind::Binary);
        assert!("protobuf".parse::<CodecKind>().is_err());
        assert_eq!(CodecKind::Binary.to_string(), "binary");
        let v = serde::Serialize::to_value(&CodecKind::Binary);
        assert_eq!(<CodecKind as serde::Deserialize>::from_value(&v).unwrap(), CodecKind::Binary);
        // Absent in pre-codec config JSON: defaults like ServerConfig.
        assert_eq!(<CodecKind as serde::Deserialize>::if_missing(), Some(CodecKind::Binary));
    }

    #[test]
    fn json_codec_interoperates_with_the_free_functions() {
        // Bytes written by the codec object parse with wire::read_frame
        // and vice versa: JsonCodec IS the wire framing.
        let req = Request::Tick { rounds: 3 };
        let mut via_codec = Vec::new();
        JsonCodec::new().write_request(&mut via_codec, &req).unwrap();
        via_codec.flush().unwrap();
        let got: Request = crate::wire::read_frame(&mut &via_codec[..]).unwrap().unwrap();
        assert_eq!(got, req);

        let mut via_free = Vec::new();
        crate::wire::write_frame(&mut via_free, &req).unwrap();
        let got = JsonCodec::new().read_request(&mut &via_free[..]).unwrap().unwrap();
        assert_eq!(got, req);
    }
}
