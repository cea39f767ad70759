//! Integration of the pub/sub generation path (Sec. II) with the trace and
//! the scheduler: activity → broker match → notification → delivery.

use richnote::core::content::ContentKind;
use richnote::core::presentation::AudioPresentationSpec;
use richnote::core::scheduler::{LinearCost, QueuedNotification, RichNoteScheduler, RoundContext};
use richnote::sim::feed::FeedRouter;
use richnote::trace::generator::{TraceConfig, TraceGenerator};
use richnote::Policy;
use std::collections::HashMap;

#[test]
fn pubsub_routed_notifications_flow_through_the_scheduler() {
    let trace = TraceGenerator::new(TraceConfig::small(21)).generate();
    let mut router = FeedRouter::from_graph(&trace.graph, 3_600.0);

    // Route the first hours of friend-feed activity through the broker and
    // enqueue every matched delivery into the *subscriber's* scheduler.
    let ladder = std::sync::Arc::new(AudioPresentationSpec::paper_default().ladder());
    let mut schedulers: HashMap<u64, RichNoteScheduler> = HashMap::new();
    let mut matched = 0usize;
    let by_id: HashMap<_, _> = trace.items.iter().map(|i| (i.id, i)).collect();

    for item in trace.items.iter().filter(|i| i.arrival < 4.0 * 3_600.0) {
        if item.kind != ContentKind::FriendFeed {
            continue;
        }
        for delivery in router.route(item) {
            matched += 1;
            let original = by_id[&delivery.payload];
            schedulers
                .entry(delivery.subscriber.value())
                .or_insert_with(|| RichNoteScheduler::builder().build())
                .enqueue(QueuedNotification {
                    item: (*original).clone(),
                    ladder: ladder.clone(),
                    content_utility: 0.6,
                    enqueued_at: delivery.delivered_at,
                });
        }
    }
    assert!(matched > 20, "expected pub/sub fan-out, matched {matched}");

    // One generous round per subscriber: everything matched is delivered.
    let cost = LinearCost { fixed: 3.5, per_byte: 2.5e-5 };
    let mut total_delivered = 0usize;
    for scheduler in schedulers.values_mut() {
        let backlog = scheduler.backlog();
        let ctx = RoundContext::builder(&cost)
            .round(4)
            .now(5.0 * 3_600.0)
            .link_capacity(u64::MAX >> 8)
            .data_grant(1_000_000_000)
            .energy_grant(3_000.0)
            .build();
        let delivered = scheduler.run_round(&ctx);
        assert_eq!(delivered.len(), backlog);
        total_delivered += delivered.len();
    }
    assert_eq!(total_delivered, matched);
}

#[test]
fn round_mode_artist_pages_batch_into_the_next_flush() {
    let trace = TraceGenerator::new(TraceConfig::small(22)).generate();
    let mut router = FeedRouter::from_graph(&trace.graph, 3_600.0);

    let mut published = 0usize;
    for item in
        trace.items.iter().filter(|i| i.kind == ContentKind::AlbumRelease && i.arrival < 3_600.0)
    {
        assert!(router.route(item).is_empty(), "album releases buffer");
        published += 1;
    }
    assert!(published > 0);

    let flushed = router.flush(3_600.0);
    let (_, matched, buffered) = router.stats();
    assert_eq!(buffered, 0, "hourly flush drains all round-mode buffers");
    assert_eq!(flushed.len() as u64, matched, "every match was buffered, none real-time");
    // Every flushed delivery is stamped at the flush instant.
    for d in &flushed {
        assert_eq!(d.delivered_at, 3_600.0);
        assert!(d.published_at <= 3_600.0);
    }
}
