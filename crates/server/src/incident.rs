//! Incident forensic bundles: everything the daemon knew when an alert
//! fired, the watchdog tripped or a checkpoint write failed, in one
//! CRC-framed, hash-chained file — the daemon's only post-mortem format.
//!
//! A bundle is written best-effort at the moment of detection so the
//! evidence survives the process: the merged registry snapshot, the
//! relevant history windows, the alert timeline, watchdog
//! verdicts, recent flight-recorder span trees, and the sanitized
//! config. `richnote-incident` pretty-prints and diffs bundles offline.
//!
//! # File format (`.rnincident`)
//!
//! ```text
//! | magic: 8 bytes "RNINC01\n" |
//! | len: u32 LE | crc32: u32 LE | body |   // meta record
//! | len: u32 LE | crc32: u32 LE | body |*  // one record per section
//! | len: u32 LE | crc32: u32 LE | body |   // seal record
//! ```
//!
//! Every body is JSON: the meta record is
//! `{"section":"meta","data":{…}}`, each section record is
//! `{"section":NAME,"data":…}`, and the final seal record is
//! `{"section":"seal","chain":N}` where `N` folds
//! [`richnote_obs::chain_next`] over the raw bytes of every
//! preceding record body, seeded from the magic. The per-record CRC
//! catches torn writes and bit rot; the seal catches editing, dropping,
//! or reordering whole sections even after a CRC fix-up.

use richnote_obs::{chain_next, chain_seed, RecordError};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

use richnote_obs::frame;

/// Magic prefix of an incident bundle file.
pub const INCIDENT_MAGIC: &[u8; 8] = b"RNINC01\n";

/// Plausibility bound on one section record (matches the wire frame cap).
const MAX_SECTION_BYTES: u32 = 16 * 1024 * 1024;

/// Typed header of a bundle: why it exists and who wrote it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentMeta {
    /// What tripped: `alert:NAME`, `watchdog:shard-N:PROBLEM` or
    /// `checkpoint_failure`.
    pub trigger: String,
    /// Human-readable one-liner for the incident.
    pub reason: String,
    /// Virtual time of detection (seconds; `rounds × round_secs` on the
    /// server, the round clock in the simulator).
    pub at_secs: f64,
    /// Daemon wallclock uptime at detection (seconds).
    pub uptime_secs: f64,
    /// Monotonic per-process incident counter (also in the file name).
    pub sequence: u64,
    /// Version / git sha / profile of the writing binary.
    pub build: crate::wire::BuildInfo,
}

/// One incident bundle: typed meta plus named JSON sections.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentBundle {
    /// Why and when the bundle was written.
    pub meta: IncidentMeta,
    /// Named sections in write order (`config`, `registry`, `alerts`,
    /// `watchdog`, `history`, `flights`, …).
    pub sections: Vec<(String, serde_json::Value)>,
}

impl IncidentBundle {
    /// The named section's data, when present.
    pub fn section(&self, name: &str) -> Option<&serde_json::Value> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// The canonical file name for a bundle: zero-padded sequence plus the
/// trigger with non-filename characters flattened to `-`.
pub fn incident_file_name(sequence: u64, trigger: &str) -> String {
    let slug: String = trigger
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '-' })
        .collect();
    format!("incident-{sequence:05}-{slug}.rnincident")
}

/// One record body: `{"section":NAME,"data":…}`.
fn section_body(name: &str, data: &serde_json::Value) -> std::io::Result<Vec<u8>> {
    let wrapper = serde_json::Value::Object(vec![
        ("section".to_string(), serde_json::Value::String(name.to_string())),
        ("data".to_string(), data.clone()),
    ]);
    let text = serde_json::to_string(&wrapper)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(text.into_bytes())
}

/// Writes `bundle` to `path`, fsyncing before returning so a bundle
/// written on a detection path survives the process dying right after.
pub fn write_incident_file(path: &Path, bundle: &IncidentBundle) -> std::io::Result<()> {
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(bundle.sections.len() + 2);
    bodies.push(section_body("meta", &Serialize::to_value(&bundle.meta))?);
    for (name, data) in &bundle.sections {
        bodies.push(section_body(name, data)?);
    }
    let mut chain = chain_seed(INCIDENT_MAGIC);
    for (i, body) in bodies.iter().enumerate() {
        chain = chain_next(chain, i as u64, 0, body);
    }
    let seal = serde_json::Value::Object(vec![
        ("section".to_string(), serde_json::Value::String("seal".to_string())),
        ("chain".to_string(), serde_json::Value::U64(chain)),
    ]);
    let seal_text = serde_json::to_string(&seal)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;

    let mut buf = Vec::new();
    buf.extend_from_slice(INCIDENT_MAGIC);
    for body in &bodies {
        frame::write_record(&mut buf, body)?;
    }
    frame::write_record(&mut buf, seal_text.as_bytes())?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(&buf)?;
    f.sync_all()
}

/// Reads and fully verifies a bundle: magic, per-record CRCs, the seal
/// chain, and the meta section.
///
/// # Errors
///
/// A human-readable description of exactly what failed, prefixed with
/// the path.
pub fn read_incident_file(path: &Path) -> Result<IncidentBundle, String> {
    let blob = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let at = path.display();
    if blob.len() < INCIDENT_MAGIC.len() || &blob[..INCIDENT_MAGIC.len()] != INCIDENT_MAGIC {
        return Err(format!("{at}: bad magic (not an incident bundle)"));
    }
    let mut r = &blob[INCIDENT_MAGIC.len()..];
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    loop {
        match frame::read_record(&mut r, MAX_SECTION_BYTES) {
            Ok(Some(body)) => bodies.push(body),
            Ok(None) => break,
            Err(RecordError::Io(e)) => return Err(format!("{at}: record {}: {e}", bodies.len())),
            Err(RecordError::Truncated) => {
                return Err(format!("{at}: record {}: truncated", bodies.len()))
            }
            Err(RecordError::TooLong { len }) => {
                return Err(format!("{at}: record {}: {len} bytes is too long", bodies.len()))
            }
            Err(RecordError::Crc { stored, computed }) => {
                return Err(format!(
                "{at}: record {}: crc mismatch (stored {stored:#010x}, computed {computed:#010x})",
                bodies.len()
            ))
            }
        }
    }
    let Some(seal_body) = bodies.pop() else {
        return Err(format!("{at}: empty bundle (no records)"));
    };

    // Verify the seal before trusting any content.
    let seal_text =
        std::str::from_utf8(&seal_body).map_err(|e| format!("{at}: seal record: {e}"))?;
    let seal = serde_json::parse_value(seal_text).map_err(|e| format!("{at}: seal record: {e}"))?;
    if seal.get("section").and_then(value_str) != Some("seal") {
        return Err(format!("{at}: missing seal record (file truncated at a record boundary?)"));
    }
    let stored_chain = match seal.get("chain") {
        Some(serde_json::Value::U64(n)) => *n,
        _ => return Err(format!("{at}: seal record has no chain")),
    };
    let mut chain = chain_seed(INCIDENT_MAGIC);
    for (i, body) in bodies.iter().enumerate() {
        chain = chain_next(chain, i as u64, 0, body);
    }
    if chain != stored_chain {
        return Err(format!(
            "{at}: chain mismatch (sealed {stored_chain:#018x}, computed {chain:#018x}) — a section was edited, dropped, or reordered"
        ));
    }

    let mut meta: Option<IncidentMeta> = None;
    let mut sections = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let text = std::str::from_utf8(body).map_err(|e| format!("{at}: record {i}: {e}"))?;
        let v = serde_json::parse_value(text).map_err(|e| format!("{at}: record {i}: {e}"))?;
        let name = v
            .get("section")
            .and_then(value_str)
            .ok_or_else(|| format!("{at}: record {i}: no section name"))?
            .to_string();
        let data = v.get("data").cloned().unwrap_or(serde_json::Value::Null);
        if i == 0 {
            if name != "meta" {
                return Err(format!("{at}: first record is {name:?}, expected meta"));
            }
            meta = Some(
                Deserialize::from_value(&data)
                    .map_err(|e| format!("{at}: meta section: {}", e.0))?,
            );
        } else {
            sections.push((name, data));
        }
    }
    let meta = meta.ok_or_else(|| format!("{at}: empty bundle (seal only)"))?;
    Ok(IncidentBundle { meta, sections })
}

/// `&str` view of a JSON string value.
fn value_str(v: &serde_json::Value) -> Option<&str> {
    match v {
        serde_json::Value::String(s) => Some(s.as_str()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use richnote_obs::crc32;

    fn bundle() -> IncidentBundle {
        IncidentBundle {
            meta: IncidentMeta {
                trigger: "alert:shed_rate".to_string(),
                reason: "shed_rate fired at 0.31 (threshold 0.05)".to_string(),
                at_secs: 7_200.0,
                uptime_secs: 12.5,
                sequence: 3,
                build: crate::wire::BuildInfo::current(),
            },
            sections: vec![
                (
                    "alerts".to_string(),
                    serde_json::Value::Object(vec![(
                        "firing".to_string(),
                        serde_json::Value::U64(1),
                    )]),
                ),
                ("watchdog".to_string(), serde_json::Value::Array(vec![])),
            ],
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rninc-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("bundle.rnincident")
    }

    #[test]
    fn bundle_roundtrips_with_sections_in_order() {
        let path = temp_path("roundtrip");
        let b = bundle();
        write_incident_file(&path, &b).unwrap();
        let back = read_incident_file(&path).unwrap();
        assert_eq!(back, b);
        assert!(back.section("alerts").is_some());
        assert!(back.section("nope").is_none());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn flipped_byte_is_a_crc_mismatch() {
        let path = temp_path("crc");
        write_incident_file(&path, &bundle()).unwrap();
        let mut blob = std::fs::read(&path).unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x20;
        std::fs::write(&path, &blob).unwrap();
        let err = read_incident_file(&path).unwrap_err();
        assert!(err.contains("crc mismatch") || err.contains("too long"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn crc_fixup_after_editing_a_section_still_breaks_the_chain() {
        let path = temp_path("chain");
        write_incident_file(&path, &bundle()).unwrap();
        let mut blob = std::fs::read(&path).unwrap();

        // Walk to the second record (first section after meta), flip one
        // body byte, and re-stamp that record's CRC so only the seal can
        // notice.
        let mut off = INCIDENT_MAGIC.len();
        for _ in 0..1 {
            let len = u32::from_le_bytes(blob[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
        }
        let len = u32::from_le_bytes(blob[off..off + 4].try_into().unwrap()) as usize;
        let body_start = off + 8;
        blob[body_start + len - 2] ^= 0x01;
        let fixed = crc32(&blob[body_start..body_start + len]);
        blob[off + 4..off + 8].copy_from_slice(&fixed.to_le_bytes());
        std::fs::write(&path, &blob).unwrap();

        let err = read_incident_file(&path).unwrap_err();
        assert!(err.contains("chain mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn dropping_the_seal_is_detected() {
        let path = temp_path("seal");
        write_incident_file(&path, &bundle()).unwrap();
        let blob = std::fs::read(&path).unwrap();

        // Truncate exactly at the last record boundary (drop the seal).
        let mut off = INCIDENT_MAGIC.len();
        let mut last_start = off;
        while off < blob.len() {
            last_start = off;
            let len = u32::from_le_bytes(blob[off..off + 4].try_into().unwrap()) as usize;
            off += 8 + len;
        }
        std::fs::write(&path, &blob[..last_start]).unwrap();
        let err = read_incident_file(&path).unwrap_err();
        assert!(err.contains("missing seal"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTINC!\ngarbage").unwrap();
        let err = read_incident_file(&path).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn file_names_are_sequenced_and_slugged() {
        assert_eq!(
            incident_file_name(7, "watchdog:shard-2:wedged"),
            "incident-00007-watchdog-shard-2-wedged.rnincident"
        );
        assert_eq!(
            incident_file_name(0, "alert:shed_rate"),
            "incident-00000-alert-shed_rate.rnincident"
        );
    }
}
