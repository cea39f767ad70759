//! Topics and publications.

use richnote_core::ids::{ArtistId, PlaylistId, UserId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A pub/sub topic, mirroring the three Spotify topic families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Topic {
    /// The activity feed of one user (friends subscribe to it).
    FriendFeed(UserId),
    /// An artist's page (release announcements).
    ArtistPage(ArtistId),
    /// A shared playlist (update announcements).
    Playlist(PlaylistId),
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topic::FriendFeed(u) => write!(f, "feed/{u}"),
            Topic::ArtistPage(a) => write!(f, "artist/{a}"),
            Topic::Playlist(p) => write!(f, "playlist/{p}"),
        }
    }
}

/// A publication on a topic carrying an application payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Publication<P> {
    /// Topic published to.
    pub topic: Topic,
    /// Application payload (e.g. a content identifier).
    pub payload: P,
    /// Publication time, seconds.
    pub published_at: f64,
}

impl<P> Publication<P> {
    /// Creates a publication.
    pub fn new(topic: Topic, payload: P, published_at: f64) -> Self {
        Self { topic, payload, published_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_pathlike() {
        assert_eq!(Topic::FriendFeed(UserId::new(3)).to_string(), "feed/u3");
        assert_eq!(Topic::ArtistPage(ArtistId::new(4)).to_string(), "artist/ar4");
        assert_eq!(Topic::Playlist(PlaylistId::new(5)).to_string(), "playlist/pl5");
    }

    #[test]
    fn topics_are_hashable_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Topic::FriendFeed(UserId::new(1)), 1);
        m.insert(Topic::FriendFeed(UserId::new(1)), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m[&Topic::FriendFeed(UserId::new(1))], 2);
    }

    #[test]
    fn publication_carries_payload() {
        let p = Publication::new(Topic::Playlist(PlaylistId::new(9)), "hello", 12.5);
        assert_eq!(p.payload, "hello");
        assert_eq!(p.published_at, 12.5);
    }
}
