//! Name → policy registry: the one place that maps the `--policy` flag
//! values (`richnote | fifo | util | adaptive`) to boxed [`Policy`]
//! instances. `richnote-server` and `loadgen` carry a [`PolicyName`] in
//! their configuration and every shard builds its users' policies through
//! [`PolicyName::factory`]; `simulate` parses the same names and attaches
//! its own `--v/--kappa/--level` values.

use crate::adaptive::AdaptivePolicy;
use crate::policy::Policy;
use crate::scheduler::{FifoScheduler, RichNoteScheduler, UtilScheduler};
use std::fmt;
use std::str::FromStr;

/// A policy selectable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyName {
    /// The paper's Lyapunov + MCKP scheduler.
    RichNote,
    /// Fixed-level FIFO baseline.
    Fifo,
    /// Fixed-level utility-ordered baseline.
    Util,
    /// Connectivity-aware adaptive wrapper around RichNote.
    Adaptive,
}

impl PolicyName {
    /// Every selectable policy, in flag-table order.
    pub const ALL: [PolicyName; 4] =
        [PolicyName::RichNote, PolicyName::Fifo, PolicyName::Util, PolicyName::Adaptive];

    /// The lowercase CLI/config name (`--policy` value).
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyName::RichNote => "richnote",
            PolicyName::Fifo => "fifo",
            PolicyName::Util => "util",
            PolicyName::Adaptive => "adaptive",
        }
    }

    /// The display name matching [`Policy::name`] and
    /// [`crate::policy::PolicyCheckpoint::policy_name`].
    pub fn display_name(self) -> &'static str {
        match self {
            PolicyName::RichNote => "RichNote",
            PolicyName::Fifo => "FIFO",
            PolicyName::Util => "UTIL",
            PolicyName::Adaptive => "Adaptive",
        }
    }

    /// A plain-`fn` factory building a default-configured instance of the
    /// policy: what a server shard calls for each user it first sees.
    pub fn factory(self) -> fn() -> Box<dyn Policy + Send> {
        match self {
            PolicyName::RichNote => || Box::new(RichNoteScheduler::builder().build()),
            PolicyName::Fifo => || Box::new(FifoScheduler::builder().fixed_level(3).build()),
            PolicyName::Util => || Box::new(UtilScheduler::builder().fixed_level(3).build()),
            PolicyName::Adaptive => || Box::new(AdaptivePolicy::builder().build()),
        }
    }

    /// Builds a default-configured instance of the policy.
    pub fn build(self) -> Box<dyn Policy + Send> {
        (self.factory())()
    }
}

impl fmt::Display for PolicyName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `--policy` was given a name no policy answers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy(pub String);

impl fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown policy {:?} (expected richnote, fifo, util or adaptive)", self.0)
    }
}

impl std::error::Error for UnknownPolicy {}

impl FromStr for PolicyName {
    type Err = UnknownPolicy;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "richnote" => Ok(PolicyName::RichNote),
            "fifo" => Ok(PolicyName::Fifo),
            "util" => Ok(PolicyName::Util),
            "adaptive" => Ok(PolicyName::Adaptive),
            _ => Err(UnknownPolicy(s.to_string())),
        }
    }
}

// Manual serde impls (the server config embeds a PolicyName): the wire
// shape is the plain lowercase name, and configs written before the
// registry existed deserialize to the RichNote default rather than
// failing.
impl serde::Serialize for PolicyName {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

impl serde::Deserialize for PolicyName {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::String(s) => {
                s.parse().map_err(|e: UnknownPolicy| serde::DeError::msg(e.to_string()))
            }
            _ => Err(serde::DeError::msg("expected policy name as a string")),
        }
    }

    fn if_missing() -> Option<Self> {
        // Pre-registry configs (checkpoint configs, capture headers) load
        // with the historical default policy.
        Some(PolicyName::RichNote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_parses_and_builds() {
        for name in PolicyName::ALL {
            let parsed: PolicyName = name.as_str().parse().unwrap();
            assert_eq!(parsed, name);
            let policy = name.build();
            assert_eq!(policy.name(), name.display_name());
            assert_eq!(policy.backlog(), 0);
        }
    }

    #[test]
    fn parsing_is_case_insensitive_and_rejects_unknowns() {
        assert_eq!("RichNote".parse::<PolicyName>().unwrap(), PolicyName::RichNote);
        assert_eq!("ADAPTIVE".parse::<PolicyName>().unwrap(), PolicyName::Adaptive);
        let err = "bogus".parse::<PolicyName>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn serde_roundtrip_and_missing_default() {
        for name in PolicyName::ALL {
            let v = serde::Serialize::to_value(&name);
            let back: PolicyName = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, name);
        }
        assert_eq!(<PolicyName as serde::Deserialize>::if_missing(), Some(PolicyName::RichNote));
    }

    #[test]
    fn factory_checkpoint_names_match() {
        for name in PolicyName::ALL {
            let policy = name.build();
            assert_eq!(policy.checkpoint().policy_name(), name.display_name());
        }
    }
}
