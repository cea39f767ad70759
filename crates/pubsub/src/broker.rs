//! The topic-based broker with real-time and round delivery modes.

use crate::topic::{Publication, Topic};
use richnote_core::ids::UserId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How matched publications reach a subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// Hand over immediately on publish.
    Realtime,
    /// Buffer and flush every `round_secs`: RichNote's rounds, and with a
    /// long period Spotify's batch mode (e.g. 6 h for artist pages).
    Rounds {
        /// Round length in seconds.
        round_secs: f64,
    },
}

impl DeliveryMode {
    fn period(&self) -> Option<f64> {
        match *self {
            DeliveryMode::Realtime => None,
            DeliveryMode::Rounds { round_secs } => Some(round_secs),
        }
    }
}

/// A matched publication handed to one subscriber.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delivery<P> {
    /// Receiving subscriber.
    pub subscriber: UserId,
    /// Topic the publication matched.
    pub topic: Topic,
    /// Payload.
    pub payload: P,
    /// Original publication time.
    pub published_at: f64,
    /// Time the broker released it to the subscriber.
    pub delivered_at: f64,
}

/// A single-threaded topic-based broker.
///
/// Subscribers register per topic; every **subscription** carries its own
/// delivery mode (Spotify's hybrid engine delivers friend feeds to a user
/// in real time while batching album releases *to the same user*, Sec. II).
/// Publications match subscribers of their topic; real-time subscriptions
/// receive them from [`Broker::publish`] directly, others on
/// [`Broker::flush`].
///
/// ```
/// use richnote_core::ids::UserId;
/// use richnote_pubsub::{Broker, DeliveryMode, Publication, Topic};
///
/// let mut broker: Broker<&str> = Broker::new();
/// let feed = Topic::FriendFeed(UserId::new(7));
/// broker.subscribe_with_mode(UserId::new(1), feed, DeliveryMode::Realtime);
/// let delivered = broker.publish(Publication::new(feed, "new track", 0.0));
/// assert_eq!(delivered.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Broker<P> {
    subscriptions: HashMap<Topic, HashSet<UserId>>,
    modes: HashMap<(UserId, Topic), DeliveryMode>,
    /// Buffered publications per (subscriber, topic), with last-flush
    /// bookkeeping per subscription.
    buffers: BTreeMap<(u64, Topic), Vec<Delivery<P>>>,
    last_flush: HashMap<(UserId, Topic), f64>,
    published: u64,
    matched: u64,
}

impl<P: Clone> Broker<P> {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Self {
            subscriptions: HashMap::new(),
            modes: HashMap::new(),
            buffers: BTreeMap::new(),
            last_flush: HashMap::new(),
            published: 0,
            matched: 0,
        }
    }

    /// Subscribes `user` to `topic` with an explicit delivery mode.
    pub fn subscribe_with_mode(&mut self, user: UserId, topic: Topic, mode: DeliveryMode) {
        self.subscriptions.entry(topic).or_default().insert(user);
        self.modes.insert((user, topic), mode);
    }

    /// Publishes; returns deliveries for real-time subscribers and buffers
    /// the rest.
    pub fn publish(&mut self, publication: Publication<P>) -> Vec<Delivery<P>> {
        self.published += 1;
        let Some(subs) = self.subscriptions.get(&publication.topic) else {
            return Vec::new();
        };
        let mut immediate = Vec::new();
        // Deterministic order: sort subscriber ids.
        let mut ordered: Vec<UserId> = subs.iter().copied().collect();
        ordered.sort_unstable();
        for user in ordered {
            self.matched += 1;
            let delivery = Delivery {
                subscriber: user,
                topic: publication.topic,
                payload: publication.payload.clone(),
                published_at: publication.published_at,
                delivered_at: publication.published_at,
            };
            match self
                .modes
                .get(&(user, publication.topic))
                .copied()
                .unwrap_or(DeliveryMode::Realtime)
            {
                DeliveryMode::Realtime => immediate.push(delivery),
                _ => self
                    .buffers
                    .entry((user.value(), publication.topic))
                    .or_default()
                    .push(delivery),
            }
        }
        immediate
    }

    /// Releases buffered deliveries whose subscription's period has elapsed
    /// by `now`. A subscription flushes when `now ≥ last_flush + period`,
    /// with `last_flush` anchored at time 0 — so a 6-hour subscription
    /// first flushes at the 6-hour mark. Delivered items get
    /// `delivered_at = now`.
    pub fn flush(&mut self, now: f64) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        let keys: Vec<(u64, Topic)> = self.buffers.keys().copied().collect();
        for (raw, topic) in keys {
            let user = UserId::new(raw);
            let period = self.modes.get(&(user, topic)).and_then(|m| m.period()).unwrap_or(0.0);
            let last = self.last_flush.get(&(user, topic)).copied().unwrap_or(0.0);
            if now - last >= period {
                if let Some(mut buf) = self.buffers.remove(&(raw, topic)) {
                    for d in &mut buf {
                        d.delivered_at = now;
                    }
                    out.extend(buf);
                    self.last_flush.insert((user, topic), now);
                }
            }
        }
        out
    }

    /// Total publications seen.
    pub fn published_count(&self) -> u64 {
        self.published
    }

    /// Total (publication, subscriber) matches.
    pub fn matched_count(&self) -> u64 {
        self.matched
    }

    /// Buffered deliveries not yet flushed.
    pub fn buffered_count(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }
}

impl<P: Clone> Default for Broker<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use richnote_core::ids::{ArtistId, PlaylistId};

    fn feed(u: u64) -> Topic {
        Topic::FriendFeed(UserId::new(u))
    }

    fn realtime(b: &mut Broker<u32>, user: u64, topic: Topic) {
        b.subscribe_with_mode(UserId::new(user), topic, DeliveryMode::Realtime);
    }

    #[test]
    fn realtime_subscribers_get_publications_immediately() {
        let mut b: Broker<u32> = Broker::new();
        realtime(&mut b, 1, feed(9));
        realtime(&mut b, 2, feed(9));
        let out = b.publish(Publication::new(feed(9), 7, 100.0));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].subscriber, UserId::new(1));
        assert_eq!(out[1].subscriber, UserId::new(2));
        assert!(out.iter().all(|d| d.delivered_at == 100.0));
        assert_eq!(b.buffered_count(), 0);
    }

    #[test]
    fn non_subscribers_get_nothing() {
        let mut b: Broker<u32> = Broker::new();
        realtime(&mut b, 1, feed(9));
        let out = b.publish(Publication::new(feed(8), 7, 0.0));
        assert!(out.is_empty());
        assert_eq!(b.matched_count(), 0);
        assert_eq!(b.published_count(), 1);
    }

    #[test]
    fn round_subscribers_are_buffered_until_flush() {
        let mut b: Broker<u32> = Broker::new();
        let artist = Topic::ArtistPage(ArtistId::new(5));
        let six_hours = DeliveryMode::Rounds { round_secs: 6.0 * 3_600.0 };
        b.subscribe_with_mode(UserId::new(1), artist, six_hours);
        let out = b.publish(Publication::new(artist, 42, 10.0));
        assert!(out.is_empty());
        assert_eq!(b.buffered_count(), 1);
        // A flush before the first 6-hour mark is a no-op.
        assert!(b.flush(3_600.0).is_empty());
        let flushed = b.flush(6.0 * 3_600.0);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].delivered_at, 6.0 * 3_600.0);
        assert_eq!(flushed[0].published_at, 10.0);
        assert_eq!(b.buffered_count(), 0);
    }

    #[test]
    fn rounds_mode_flushes_each_round() {
        let mut b: Broker<u32> = Broker::new();
        let pl = Topic::Playlist(PlaylistId::new(1));
        b.subscribe_with_mode(UserId::new(1), pl, DeliveryMode::Rounds { round_secs: 60.0 });
        b.publish(Publication::new(pl, 1, 0.0));
        assert!(b.flush(59.0).is_empty());
        assert_eq!(b.flush(60.0).len(), 1);
        b.publish(Publication::new(pl, 2, 90.0));
        assert!(b.flush(119.0).is_empty(), "round since last flush not elapsed");
        assert_eq!(b.flush(120.0).len(), 1);
    }

    #[test]
    fn modes_are_per_subscription_like_spotify_hybrid() {
        // The same user gets friend feeds in real time and artist pages in
        // rounds — the hybrid engine of Sec. II.
        let mut b: Broker<u32> = Broker::new();
        let artist = Topic::ArtistPage(ArtistId::new(2));
        b.subscribe_with_mode(UserId::new(1), artist, DeliveryMode::Rounds { round_secs: 60.0 });
        realtime(&mut b, 1, feed(9));
        let out = b.publish(Publication::new(feed(9), 7, 0.0));
        assert_eq!(out.len(), 1, "friend feed is real-time");
        let out = b.publish(Publication::new(artist, 8, 0.0));
        assert!(out.is_empty(), "artist page is buffered");
        assert_eq!(b.buffered_count(), 1);
    }

    #[test]
    fn matched_count_tracks_fanout() {
        let mut b: Broker<u32> = Broker::new();
        for u in 0..5 {
            realtime(&mut b, u, feed(1));
        }
        b.publish(Publication::new(feed(1), 0, 0.0));
        assert_eq!(b.matched_count(), 5);
    }
}
