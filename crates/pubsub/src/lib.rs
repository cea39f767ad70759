//! # richnote-pubsub
//!
//! Topic-based publish/subscribe substrate modeling Spotify's hybrid
//! notification engine (Sec. II of the RichNote paper).
//!
//! Topics correspond to **friend feeds**, **artist pages** and **shared
//! playlists**; publications are notifications about friends streaming
//! tracks, album releases, and playlist updates. Each subscription is
//! delivered in one of two modes:
//!
//! * **real-time** — matched publications are handed to the subscriber
//!   immediately (Spotify's friend-feed path);
//! * **rounds** — publications are buffered and flushed on a fixed round
//!   length: RichNote's rounds, or with a long period Spotify's batch path
//!   for albums and playlists.
//!
//! The [`broker::Broker`] is single-threaded and deterministic; callers
//! that share it across threads wrap it in a lock.

pub mod broker;
pub mod topic;

pub use broker::{Broker, Delivery, DeliveryMode};
pub use topic::{Publication, Topic};
