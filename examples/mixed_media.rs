//! Mixed-media notifications: the generic presentation-generator framework
//! of Sec. III-B ("different generators may exist for different content
//! types") scheduling audio previews, scalable video clips and cover-art
//! thumbnails in one RichNote round.
//!
//! Run with: `cargo run --example mixed_media`

use richnote::core::content::{ContentFeatures, ContentItem, ContentKind, Interaction};
use richnote::core::generators::{
    ImagePresentationSpec, PresentationGenerator, VideoPresentationSpec,
};
use richnote::core::ids::{AlbumId, ArtistId, ContentId, TrackId, UserId};
use richnote::core::presentation::AudioPresentationSpec;
use richnote::core::scheduler::{LinearCost, QueuedNotification, RichNoteScheduler, RoundContext};
use richnote::Policy;

fn item(id: u64) -> ContentItem {
    ContentItem {
        id: ContentId::new(id),
        recipient: UserId::new(1),
        sender: None,
        kind: ContentKind::AlbumRelease,
        track: TrackId::new(id),
        album: AlbumId::new(id),
        artist: ArtistId::new(id),
        arrival: 0.0,
        track_secs: 276.0,
        features: ContentFeatures::default(),
        interaction: Interaction::NoActivity,
    }
}

fn main() {
    let audio = AudioPresentationSpec::paper_default();
    let video = VideoPresentationSpec::default_spec();
    let image = ImagePresentationSpec::default_spec();
    let generators: Vec<(&str, &dyn PresentationGenerator, f64)> = vec![
        ("new single (audio)", &audio, 0.9),
        ("music video (video)", &video, 0.7),
        ("album cover (image)", &image, 0.5),
    ];

    println!("ladders produced by the per-media generators:\n");
    let mut scheduler = RichNoteScheduler::builder().build();
    for (i, (label, generator, uc)) in generators.iter().enumerate() {
        let ladder = generator.generate(276.0).expect("valid ladder");
        println!("  {label} [{}]:", generator.media_type());
        for p in ladder.deliverable() {
            println!("    level {}: {:>9} bytes, Up = {:.3}", p.level, p.size, p.utility);
        }
        scheduler.enqueue(QueuedNotification {
            item: item(i as u64),
            ladder: std::sync::Arc::new(ladder),
            content_utility: *uc,
            enqueued_at: 0.0,
        });
    }

    let cost = LinearCost { fixed: 3.5, per_byte: 2.5e-5 };
    let ctx = RoundContext::builder(&cost)
        .now(3_600.0)
        .data_grant(1_200_000) // 1.2 MB this round
        .energy_grant(3_000.0)
        .build();
    let delivered = scheduler.run_round(&ctx);

    println!("\none round under a 1.2 MB budget:");
    for d in &delivered {
        println!("  {} -> level {} ({} bytes, U = {:.3})", d.content, d.level, d.size, d.utility);
    }
    let total: u64 = delivered.iter().map(|d| d.size).sum();
    println!(
        "\ndelivered {} of 3 items in {} bytes — the knapsack trades preview\n\
         depth across *different media types* with one utility currency.",
        delivered.len(),
        total
    );
}
