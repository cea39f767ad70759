//! The notification *generation* path (Sec. II): music activity flows
//! through the topic-based pub/sub broker — friend feeds in real-time mode,
//! artist pages on Spotify's 6-hour batch schedule, and RichNote's shorter
//! rounds. Both buffered schedules are `DeliveryMode::Rounds`.
//!
//! Run with: `cargo run --example pubsub_feed`

use richnote::core::ids::{ArtistId, TrackId, UserId};
use richnote::pubsub::{Broker, DeliveryMode, Publication, Topic};

/// Payload: which track the publication is about.
type Payload = TrackId;

fn main() {
    let mut broker: Broker<Payload> = Broker::new();

    // Alice (u1) and Bob (u2) follow Carol's (u3) friend feed in real time.
    let carol_feed = Topic::FriendFeed(UserId::new(3));
    broker.subscribe_with_mode(UserId::new(1), carol_feed, DeliveryMode::Realtime);
    broker.subscribe_with_mode(UserId::new(2), carol_feed, DeliveryMode::Realtime);

    // Dave (u4) follows an artist page on Spotify's batch schedule: one
    // flush every 6 hours.
    let artist = Topic::ArtistPage(ArtistId::new(42));
    broker.subscribe_with_mode(
        UserId::new(4),
        artist,
        DeliveryMode::Rounds { round_secs: 6.0 * 3_600.0 },
    );

    // Erin (u5) follows the same artist but opts into RichNote's
    // round-based delivery: hourly flushes instead of 6-hour batches.
    broker.subscribe_with_mode(
        UserId::new(5),
        artist,
        DeliveryMode::Rounds { round_secs: 3_600.0 },
    );

    // Carol streams a track at t = 100 s: real-time fan-out.
    let immediate = broker.publish(Publication::new(carol_feed, TrackId::new(7), 100.0));
    println!("Carol streams track t7 at t=100s:");
    for d in &immediate {
        println!("  -> {} immediately (real-time mode)", d.subscriber);
    }

    // The artist releases an album at t = 200 s: buffered for batch users.
    broker.publish(Publication::new(artist, TrackId::new(9), 200.0));
    println!(
        "\nArtist ar42 releases track t9 at t=200s: buffered ({} pending)",
        broker.buffered_count()
    );

    // One hour later the round flush releases Erin's copy; Dave's 6-hour
    // batch is still pending.
    let at_one_hour = broker.flush(3_700.0);
    println!("\nflush at t=3700s (RichNote round boundary):");
    for d in &at_one_hour {
        println!(
            "  -> {} (round mode, {}s after publication)",
            d.subscriber,
            d.delivered_at - d.published_at
        );
    }
    println!("  still buffered for batch users: {}", broker.buffered_count());

    // Six hours in, the batch flush catches Dave up.
    let at_six_hours = broker.flush(6.0 * 3_600.0 + 100.0);
    println!("\nflush at t=6h:");
    for d in &at_six_hours {
        println!(
            "  -> {} (batch mode, {:.0}s after publication)",
            d.subscriber,
            d.delivered_at - d.published_at
        );
    }

    println!(
        "\nmatched {} subscriptions across {} publications",
        broker.matched_count(),
        broker.published_count()
    );
}
