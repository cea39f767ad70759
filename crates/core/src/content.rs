//! The content-item data model: what a notification is *about*.
//!
//! A [`ContentItem`] corresponds to one candidate notification for one user.
//! It carries the feature values the paper's content-utility classifier
//! consumes (social tie, popularity, temporal features) plus ground-truth
//! interaction data (click/hover) when the item originates from a trace.

use crate::ids::{AlbumId, ArtistId, ContentId, TrackId, UserId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of publication the notification originates from, mirroring the
/// three Spotify topic families (Sec. II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentKind {
    /// A friend started streaming a music track (real-time mode feed).
    FriendFeed,
    /// A followed artist released a new album (batch mode).
    AlbumRelease,
    /// A followed shared playlist was updated (batch mode).
    PlaylistUpdate,
}

impl ContentKind {
    /// All kinds, in a stable order.
    pub const ALL: [ContentKind; 3] =
        [ContentKind::FriendFeed, ContentKind::AlbumRelease, ContentKind::PlaylistUpdate];
}

impl fmt::Display for ContentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ContentKind::FriendFeed => "friend-feed",
            ContentKind::AlbumRelease => "album-release",
            ContentKind::PlaylistUpdate => "playlist-update",
        };
        f.write_str(s)
    }
}

/// Strength of the social tie between the sender and the recipient of a
/// notification, one of the classifier features (Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SocialTie {
    /// No edge in the social graph (e.g. a global artist notification).
    None,
    /// The recipient follows the sender (one-directional edge).
    Follows,
    /// Mutual follow relationship.
    Mutual,
    /// The sender is one of the recipient's favorite artists.
    FavoriteArtist,
}

impl SocialTie {
    /// Encodes the tie as an ordinal feature value in `[0, 1]`.
    ///
    /// Stronger ties map to larger values, matching the paper's intuition
    /// that "a notification from a friend or favorite artist has a higher
    /// utility".
    pub fn strength(self) -> f64 {
        match self {
            SocialTie::None => 0.0,
            SocialTie::Follows => 0.4,
            SocialTie::Mutual => 0.7,
            SocialTie::FavoriteArtist => 1.0,
        }
    }
}

/// Ground-truth user interaction with a delivered notification, as mined
/// from mouse-activity logs (Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Interaction {
    /// The user clicked the notification at the given trace time (seconds).
    Clicked {
        /// Trace time of the click, in seconds from trace start.
        at: f64,
    },
    /// The user hovered over the notification without clicking.
    Hovered,
    /// No recorded mouse activity (filtered out of classifier training).
    NoActivity,
}

impl Interaction {
    /// Whether the interaction is a click.
    pub fn is_click(self) -> bool {
        matches!(self, Interaction::Clicked { .. })
    }

    /// The click time, if the interaction is a click.
    pub fn click_time(self) -> Option<f64> {
        match self {
            Interaction::Clicked { at } => Some(at),
            _ => None,
        }
    }
}

/// The feature vector the content-utility classifier consumes (Sec. V-A):
/// social tie, track/album/artist popularity, and temporal context.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentFeatures {
    /// Social tie between sender and recipient.
    pub tie: SocialTie,
    /// Track popularity, normalized 1–100 (Spotify public API convention).
    pub track_popularity: f64,
    /// Album popularity, normalized 1–100.
    pub album_popularity: f64,
    /// Artist popularity, normalized 1–100.
    pub artist_popularity: f64,
    /// Whether the notification was generated on a weekend.
    pub weekend: bool,
    /// Whether the notification was generated at night (22:00–06:00).
    pub night: bool,
}

impl ContentFeatures {
    /// Flattens the features into the numeric vector fed to the classifier.
    ///
    /// Order: tie strength, track/album/artist popularity (rescaled to
    /// `[0,1]`), weekend flag, night flag.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.tie.strength(),
            self.track_popularity / 100.0,
            self.album_popularity / 100.0,
            self.artist_popularity / 100.0,
            f64::from(u8::from(self.weekend)),
            f64::from(u8::from(self.night)),
        ]
    }

    /// Names of the feature columns, aligned with [`Self::to_vec`].
    pub fn feature_names() -> &'static [&'static str] {
        &[
            "social_tie",
            "track_popularity",
            "album_popularity",
            "artist_popularity",
            "weekend",
            "night",
        ]
    }
}

impl Default for ContentFeatures {
    fn default() -> Self {
        Self {
            tie: SocialTie::None,
            track_popularity: 50.0,
            album_popularity: 50.0,
            artist_popularity: 50.0,
            weekend: false,
            night: false,
        }
    }
}

/// One candidate notification for one user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentItem {
    /// Unique identifier of this notification.
    pub id: ContentId,
    /// Recipient user.
    pub recipient: UserId,
    /// Sending user, when the publication has a human sender (friend feeds).
    pub sender: Option<UserId>,
    /// Kind of publication.
    pub kind: ContentKind,
    /// Track the notification is about.
    pub track: TrackId,
    /// Album of the track.
    pub album: AlbumId,
    /// Artist of the track.
    pub artist: ArtistId,
    /// Arrival time at the broker, seconds from trace start.
    pub arrival: f64,
    /// Full duration of the underlying track, seconds.
    pub track_secs: f64,
    /// Classifier features.
    pub features: ContentFeatures,
    /// Ground-truth interaction from the trace (used only for evaluation,
    /// never visible to the scheduler).
    pub interaction: Interaction,
}

impl ContentItem {
    /// Round index this item arrives in, for a given round length.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `round_secs` is not positive.
    pub fn arrival_round(&self, round_secs: f64) -> u64 {
        debug_assert!(round_secs > 0.0, "round length must be positive");
        (self.arrival / round_secs).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_item() -> ContentItem {
        ContentItem {
            id: ContentId::new(1),
            recipient: UserId::new(2),
            sender: Some(UserId::new(3)),
            kind: ContentKind::FriendFeed,
            track: TrackId::new(4),
            album: AlbumId::new(5),
            artist: ArtistId::new(6),
            arrival: 7250.0,
            track_secs: 276.0,
            features: ContentFeatures::default(),
            interaction: Interaction::Clicked { at: 9000.0 },
        }
    }

    #[test]
    fn arrival_round_floors() {
        let item = sample_item();
        assert_eq!(item.arrival_round(3600.0), 2);
    }

    #[test]
    fn tie_strength_is_monotone() {
        assert!(SocialTie::None.strength() < SocialTie::Follows.strength());
        assert!(SocialTie::Follows.strength() < SocialTie::Mutual.strength());
        assert!(SocialTie::Mutual.strength() < SocialTie::FavoriteArtist.strength());
    }

    #[test]
    fn feature_vector_matches_names() {
        let v = ContentFeatures::default().to_vec();
        assert_eq!(v.len(), ContentFeatures::feature_names().len());
        assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
    }

    #[test]
    fn interaction_click_accessors() {
        assert!(Interaction::Clicked { at: 1.0 }.is_click());
        assert_eq!(Interaction::Clicked { at: 1.0 }.click_time(), Some(1.0));
        assert!(!Interaction::Hovered.is_click());
        assert_eq!(Interaction::NoActivity.click_time(), None);
    }

    #[test]
    fn content_kind_display_names() {
        assert_eq!(ContentKind::AlbumRelease.to_string(), "album-release");
    }

    #[test]
    fn item_clone_is_equal() {
        let item = sample_item();
        assert_eq!(item.clone(), item);
    }
}
