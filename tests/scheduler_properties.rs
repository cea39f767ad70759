//! Property-based tests of the round scheduling policies: budget safety,
//! conservation (every enqueued item is delivered at most once), delay
//! sanity and utility ordering under randomized workloads.

use proptest::prelude::*;
use richnote::core::content::{ContentFeatures, ContentItem, ContentKind, Interaction};
use richnote::core::ids::{AlbumId, ArtistId, ContentId, TrackId, UserId};
use richnote::core::presentation::AudioPresentationSpec;
use richnote::core::scheduler::{
    FifoScheduler, LinearCost, QueuedNotification, RichNoteScheduler, RoundContext, UtilScheduler,
};
use richnote::Policy;
use std::collections::HashSet;

const COST: LinearCost = LinearCost { fixed: 3.5, per_byte: 2.5e-5 };

fn notification(id: u64, uc: f64, at: f64) -> QueuedNotification {
    QueuedNotification {
        item: ContentItem {
            id: ContentId::new(id),
            recipient: UserId::new(1),
            sender: None,
            kind: ContentKind::FriendFeed,
            track: TrackId::new(id),
            album: AlbumId::new(id),
            artist: ArtistId::new(id),
            arrival: at,
            track_secs: 276.0,
            features: ContentFeatures::default(),
            interaction: Interaction::NoActivity,
        },
        ladder: std::sync::Arc::new(AudioPresentationSpec::paper_default().ladder()),
        content_utility: uc,
        enqueued_at: at,
    }
}

/// A randomized workload: per-round batches of (utility) arrivals.
fn workload() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.01f64..1.0, 0..6), 1..20)
}

fn run_policy(
    scheduler: &mut dyn Policy,
    rounds: &[Vec<f64>],
    grant: u64,
) -> Vec<richnote::core::scheduler::DeliveredNotification> {
    let mut out = Vec::new();
    let mut next_id = 0u64;
    for (r, batch) in rounds.iter().enumerate() {
        let now = r as f64 * 3_600.0;
        for &uc in batch {
            scheduler.enqueue(notification(next_id, uc, now));
            next_id += 1;
        }
        let ctx = RoundContext::builder(&COST)
            .round(r as u64)
            .now(now + 3_600.0)
            .link_capacity(900_000_000)
            .data_grant(grant)
            .energy_grant(3_000.0)
            .build();
        out.extend(scheduler.run_round(&ctx));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn policies_never_exceed_cumulative_budget(
        rounds in workload(),
        grant in 1_000u64..2_000_000,
    ) {
        let total_grant = grant * rounds.len() as u64;
        for policy in 0..3usize {
            let mut s: Box<dyn Policy> = match policy {
                0 => Box::new(RichNoteScheduler::builder().build()),
                1 => Box::new(FifoScheduler::builder().fixed_level(3).build()),
                _ => Box::new(UtilScheduler::builder().fixed_level(3).build()),
            };
            let delivered = run_policy(&mut *s, &rounds, grant);
            let bytes: u64 = delivered.iter().map(|d| d.size).sum();
            prop_assert!(
                bytes <= total_grant,
                "{}: {bytes} > {total_grant}",
                s.name()
            );
        }
    }

    #[test]
    fn no_item_is_delivered_twice(rounds in workload()) {
        let mut s = RichNoteScheduler::builder().build();
        let total: usize = rounds.iter().map(Vec::len).sum();
        let delivered = run_policy(&mut s, &rounds, 500_000);
        let mut seen = HashSet::new();
        for d in &delivered {
            prop_assert!(seen.insert(d.content), "duplicate delivery of {}", d.content);
        }
        prop_assert!(delivered.len() + s.backlog() == total);
    }

    #[test]
    fn delays_are_never_negative(rounds in workload(), grant in 10_000u64..1_000_000) {
        for policy in 0..3usize {
            let mut s: Box<dyn Policy> = match policy {
                0 => Box::new(RichNoteScheduler::builder().build()),
                1 => Box::new(FifoScheduler::builder().fixed_level(2).build()),
                _ => Box::new(UtilScheduler::builder().fixed_level(2).build()),
            };
            let delivered = run_policy(&mut *s, &rounds, grant);
            for d in &delivered {
                prop_assert!(d.queuing_delay() >= 0.0, "{}: {d:?}", s.name());
            }
        }
    }

    #[test]
    fn richnote_round_output_is_utility_sorted(batch in prop::collection::vec(0.01f64..1.0, 1..8)) {
        let mut s = RichNoteScheduler::builder().build();
        for (i, &uc) in batch.iter().enumerate() {
            s.enqueue(notification(i as u64, uc, 0.0));
        }
        let ctx = RoundContext::builder(&COST)
            .now(3_600.0)
            .link_capacity(u64::MAX >> 8)
            .data_grant(10_000_000)
            .energy_grant(3_000.0)
            .build();
        let delivered = s.run_round(&ctx);
        for w in delivered.windows(2) {
            prop_assert!(w[0].utility >= w[1].utility);
        }
    }

    #[test]
    fn offline_rounds_deliver_nothing_and_bank_budget(
        online_pattern in prop::collection::vec(any::<bool>(), 2..12),
    ) {
        let mut s = RichNoteScheduler::builder().build();
        s.enqueue(notification(0, 0.9, 0.0));
        let mut banked = 0u64;
        let grant = 50_000u64;
        for (r, &online) in online_pattern.iter().enumerate() {
            let ctx = RoundContext::builder(&COST)
                .round(r as u64)
                .now((r + 1) as f64 * 3_600.0)
                .online(online)
                .link_capacity(900_000_000)
                .data_grant(grant)
                .energy_grant(3_000.0)
                .build();
            let delivered = s.run_round(&ctx);
            banked += grant;
            if !online {
                prop_assert!(delivered.is_empty());
            } else if !delivered.is_empty() {
                let bytes: u64 = delivered.iter().map(|d| d.size).sum();
                prop_assert!(bytes <= banked);
                banked -= bytes;
            }
        }
    }
}
