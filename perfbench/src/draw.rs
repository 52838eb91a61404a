//! Seeded inputs: the `iterate` program draw and the `serve` arrival
//! schedule. The seed only reorders a fixed key set, so every seed runs the
//! same mix of work and two runs differ in order alone.

use halide_pipelines::{AppKind, ScheduleChoice};

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One program: an app, a schedule and an output shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub app: AppKind,
    pub schedule: ScheduleChoice,
    pub width: i64,
    pub height: i64,
}

impl Key {
    pub fn new(app: AppKind, schedule: ScheduleChoice, (width, height): (i64, i64)) -> Key {
        Key {
            app,
            schedule,
            width,
            height,
        }
    }

    /// Output pixels (the camera pipe's three channels count as one pixel).
    pub fn pixels(&self) -> f64 {
        (self.width * self.height) as f64
    }

    /// The breadth-first version of this program: the reference it must
    /// match bit for bit.
    pub fn reference(&self) -> Key {
        Key {
            schedule: ScheduleChoice::Naive,
            ..*self
        }
    }

    pub fn label(&self) -> String {
        let schedule = match self.schedule {
            ScheduleChoice::Naive => "naive",
            ScheduleChoice::Tuned => "tuned",
            ScheduleChoice::Gpu => "gpu",
        };
        format!(
            "{}/{}/{}x{}",
            self.app.slug(),
            schedule,
            self.width,
            self.height
        )
    }
}

/// `iterate` shapes. They start at 64 wide because the tuned blur schedule
/// rejects narrower outputs.
pub const ITERATE_SHAPES: [(i64, i64); 3] = [(64, 48), (96, 64), (128, 96)];

/// The 36 `iterate` keys: every app × {naive, tuned} × shape.
pub fn iterate_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for shape in ITERATE_SHAPES {
        for app in AppKind::ALL {
            for schedule in [ScheduleChoice::Naive, ScheduleChoice::Tuned] {
                keys.push(Key::new(app, schedule, shape));
            }
        }
    }
    keys
}

/// The `iterate` draw: `passes` back-to-back passes, each a seeded
/// permutation of [`iterate_keys`].
pub fn iterate_draw(seed: u64, passes: usize) -> Vec<Key> {
    let mut rng = Rng::new(seed);
    let mut draw = Vec::new();
    for _ in 0..passes {
        let mut pass = iterate_keys();
        rng.shuffle(&mut pass);
        draw.extend(pass);
    }
    draw
}

/// `serve` shapes: a thumbnail and a 4× larger preview.
pub const SERVE_SHAPES: [(i64, i64); 2] = [(64, 48), (128, 96)];

/// The `serve` traffic mix as (key, copies per deck): a 25-request deck of
/// thumbnails (64×48) with a few 128×96 previews of the four lighter apps.
/// Sorted by latency, the median falls inside the interpolate-thumbnail
/// block and the p99 inside the bilateral-grid one, not on the edge between
/// two blocks of very different latency.
pub fn serve_mix() -> Vec<(Key, usize)> {
    let mut mix = Vec::new();
    for app in AppKind::ALL {
        let (thumbnails, previews) = match app {
            AppKind::Blur | AppKind::Histogram => (5, 1),
            AppKind::CameraPipe | AppKind::Interpolate => (4, 1),
            AppKind::LocalLaplacian => (2, 0),
            AppKind::BilateralGrid => (1, 0),
        };
        mix.push((
            Key::new(app, ScheduleChoice::Tuned, SERVE_SHAPES[0]),
            thumbnails,
        ));
        if previews > 0 {
            mix.push((
                Key::new(app, ScheduleChoice::Tuned, SERVE_SHAPES[1]),
                previews,
            ));
        }
    }
    mix
}

/// One scheduled request: when it is due (seconds from the start of its
/// rung) and which key it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub key: Key,
}

/// A paced open-loop schedule at `rate` requests per second for `seconds`.
/// Keys are dealt from decks holding [`serve_mix`] in its proportions, each
/// deck shuffled by the seed, so the mix is exact at every deck boundary.
pub fn serve_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let deck: Vec<Key> = serve_mix()
        .into_iter()
        .flat_map(|(key, copies)| std::iter::repeat_n(key, copies))
        .collect();
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut keys = Vec::with_capacity(n + deck.len());
    while keys.len() < n {
        let mut d = deck.clone();
        rng.shuffle(&mut d);
        keys.extend(d);
    }
    keys.truncate(n);
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| Arrival {
            due_s: i as f64 / rate,
            key,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn counts(keys: impl IntoIterator<Item = Key>) -> HashMap<Key, usize> {
        let mut m = HashMap::new();
        for k in keys {
            *m.entry(k).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn one_seed_reproduces_the_iterate_draw() {
        assert_eq!(iterate_draw(7, 3), iterate_draw(7, 3));
    }

    #[test]
    fn two_seeds_reorder_the_same_iterate_keys() {
        let (a, b) = (iterate_draw(1, 3), iterate_draw(2, 3));
        assert_ne!(a, b);
        assert_eq!(counts(a.iter().copied()), counts(b.iter().copied()));
        assert_eq!(a.len(), 108);
        // Each pass holds every key exactly once.
        for pass in a.chunks(36) {
            assert_eq!(counts(pass.iter().copied()), counts(iterate_keys()));
        }
    }

    #[test]
    fn one_seed_reproduces_the_serve_schedule() {
        assert_eq!(serve_schedule(7, 20.0, 6.0), serve_schedule(7, 20.0, 6.0));
    }

    #[test]
    fn two_seeds_reorder_the_same_serve_keys() {
        let deck: usize = serve_mix().iter().map(|(_, c)| c).sum();
        let seconds = (3 * deck) as f64 / 20.0;
        let (a, b) = (
            serve_schedule(1, 20.0, seconds),
            serve_schedule(2, 20.0, seconds),
        );
        assert_ne!(a, b);
        assert_eq!(a.len(), 3 * deck);
        assert_eq!(
            counts(a.iter().map(|r| r.key)),
            counts(b.iter().map(|r| r.key))
        );
        // Arrival times do not depend on the seed.
        assert!(a.iter().zip(&b).all(|(x, y)| x.due_s == y.due_s));
    }
}
