//! Quickstart: schedule a handful of rich notifications under a data
//! budget and compare RichNote against the FIFO and UTIL baselines.
//!
//! Run with: `cargo run --example quickstart`

use richnote::core::content::{ContentFeatures, ContentItem, ContentKind, Interaction};
use richnote::core::ids::{AlbumId, ArtistId, ContentId, TrackId, UserId};
use richnote::core::presentation::AudioPresentationSpec;
use richnote::core::scheduler::{
    FifoScheduler, LinearCost, QueuedNotification, RichNoteScheduler, RoundContext, UtilScheduler,
};
use richnote::Policy;

fn notification(id: u64, content_utility: f64) -> QueuedNotification {
    QueuedNotification {
        item: ContentItem {
            id: ContentId::new(id),
            recipient: UserId::new(1),
            sender: Some(UserId::new(2)),
            kind: ContentKind::FriendFeed,
            track: TrackId::new(id),
            album: AlbumId::new(id),
            artist: ArtistId::new(id),
            arrival: 0.0,
            track_secs: 276.0,
            features: ContentFeatures::default(),
            interaction: Interaction::NoActivity,
        },
        ladder: std::sync::Arc::new(AudioPresentationSpec::paper_default().ladder()),
        content_utility,
        enqueued_at: 0.0,
    }
}

fn main() {
    // Five candidate notifications with varying content utility Uc(i).
    let utilities = [0.9, 0.7, 0.5, 0.3, 0.1];

    // A 500 KB data budget for this round: enough for everything as
    // metadata, or a couple of 10-second previews — not both at full depth.
    let budget = 500_000u64;
    let cost = LinearCost { fixed: 3.5, per_byte: 2.5e-5 };
    let ctx =
        RoundContext::builder(&cost).now(3_600.0).data_grant(budget).energy_grant(3_000.0).build();

    let mut richnote = RichNoteScheduler::builder().build();
    let mut fifo = FifoScheduler::builder().fixed_level(3).build(); // fixed: metadata + 10 s preview
    let mut util = UtilScheduler::builder().fixed_level(3).build();

    for (i, &uc) in utilities.iter().enumerate() {
        richnote.enqueue(notification(i as u64, uc));
        fifo.enqueue(notification(i as u64, uc));
        util.enqueue(notification(i as u64, uc));
    }

    println!("one round, {} byte budget, 5 candidate notifications\n", budget);
    for (name, delivered) in [
        ("RichNote", richnote.run_round(&ctx)),
        ("FIFO@10s", fifo.run_round(&ctx)),
        ("UTIL@10s", util.run_round(&ctx)),
    ] {
        let total_utility: f64 = delivered.iter().map(|d| d.utility).sum();
        let total_bytes: u64 = delivered.iter().map(|d| d.size).sum();
        println!(
            "{name:>8}: delivered {} of 5, {:>7} bytes, utility {:.3}",
            delivered.len(),
            total_bytes,
            total_utility
        );
        for d in &delivered {
            println!(
                "          {} at level {} ({} bytes, U = {:.3})",
                d.content, d.level, d.size, d.utility
            );
        }
    }

    println!(
        "\nRichNote adapts the presentation level per item: every notification is\n\
         delivered (high-utility ones with previews, the rest as metadata), while\n\
         the fixed-level baselines run out of budget after two deliveries."
    );
}
