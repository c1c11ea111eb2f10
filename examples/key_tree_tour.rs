//! A guided tour of the key tree and marking algorithm, replaying the
//! paper's Section 2 example and then the trickier batch cases.
//!
//! ```sh
//! cargo run --example key_tree_tour
//! ```

use keytree::{analysis, Batch, KeyTree, Label, MarkScratch};
use wirecrypto::KeyGen;

fn main() {
    let mut kg = KeyGen::from_seed(2001);

    // --- The paper's Figure 1: nine users, degree 3 -------------------
    println!("== Section 2.1: nine users under a degree-3 tree ==");
    let mut tree = KeyTree::balanced(9, 3, &mut kg);
    println!("{}", tree.render_ascii());

    // u9 (member 8) leaves; the paper's example rekey message follows.
    println!("-- member 8 (the paper's u9) leaves --");
    let outcome = tree.process_batch(&Batch::new(vec![], vec![8]), &mut kg);
    println!("{}", tree.render_ascii());
    println!(
        "updated k-nodes (deepest first): {:?}",
        outcome.updated_knodes
    );
    for e in &outcome.encryptions {
        println!(
            "  encryption: {{key of node {}}} sealed under key of node {}",
            e.parent, e.child
        );
    }
    println!(
        "-> the paper's message: ({{k78}}k7, {{k78}}k8, {{k1-8}}k123, {{k1-8}}k456, {{k1-8}}k78)\n"
    );

    // --- Labels on a mixed batch --------------------------------------
    println!("== A mixed batch: 2 joins, 3 leaves on a degree-4 tree ==");
    let mut tree = KeyTree::balanced(16, 4, &mut kg);
    println!("{}", tree.render_ascii());
    let joins = vec![(100, kg.next_key()), (101, kg.next_key())];
    let mut scratch = MarkScratch::new();
    tree.process_batch_in(Batch::new(joins, vec![0, 1, 9]), &mut kg, &mut scratch);
    println!("-- after: members 0, 1, 9 out; members 100, 101 in --");
    println!("{}", tree.render_ascii());
    for id in 0..tree.storage_len() as u32 {
        match scratch.label_of(id) {
            None | Some(Label::Unchanged) => {}
            Some(label) => println!("  node {id}: {label:?}"),
        }
    }
    println!();

    // --- Splitting and ID rederivation ---------------------------------
    println!("== Overflow joins force node splitting ==");
    let mut tree = KeyTree::balanced(16, 4, &mut kg);
    let joins: Vec<_> = (0..5).map(|i| (200 + i, kg.next_key())).collect();
    let outcome = tree.process_batch(&Batch::new(joins, vec![]), &mut kg);
    println!("{}", tree.render_ascii());
    for mv in &outcome.moves {
        let derived = keytree::ident::derive_current_id(mv.old_id, outcome.nk.unwrap(), 4).unwrap();
        println!(
            "  member {} moved {} -> {} (Theorem 4.2 rederives {} from maxKID={} alone)",
            mv.member,
            mv.old_id,
            mv.new_id,
            derived,
            outcome.nk.unwrap()
        );
        assert_eq!(derived, mv.new_id);
    }
    println!();

    // --- The analytical cost model -------------------------------------
    println!("== Closed-form expected message size (d = 4, N = 256) ==");
    println!("{:>6} {:>12}", "L", "E[encryptions]");
    for l in [1u64, 16, 64, 128, 192, 255] {
        println!(
            "{l:>6} {:>12.1}",
            analysis::expected_encryptions_leave_only(4, 4, l)
        );
    }
    println!("(unimodal with the peak near L = N/d = 64 — the paper's Figure 6 shape)");
}
