"""Event forecasting: rank the most likely future events for concrete
queries, and inspect *why* through the model's components.

This mirrors the paper's motivating use case (ICEWS crisis-event
prediction): given everything known up to time t-1, answer queries
like "(actor A, relation r, ?)" at time t, and inspect the globally
relevant graph and self-gating weights behind a prediction.

Run:  python examples/event_forecasting.py
"""

import numpy as np

from repro.core import Forecaster, HisRES, HisRESConfig, WindowConfig
from repro.data import generate_dataset
from repro.training import Trainer


def main():
    dataset = generate_dataset("unit_tiny")
    config = HisRESConfig(embedding_dim=16, history_length=3, decoder_channels=4)
    model = HisRES(dataset.num_entities, dataset.num_relations, config)
    trainer = Trainer(model, dataset, history_length=3, learning_rate=0.01, seed=1)
    trainer.fit(epochs=6, patience=3)

    # Online API: replay history, then predict the next step.
    forecaster = Forecaster(
        model, dataset.num_entities, dataset.num_relations,
        window_config=WindowConfig(history_length=3, use_global=True),
    )
    forecaster.warm_up(dataset.train)
    forecaster.warm_up(dataset.valid)

    first_test_t = int(dataset.test.timestamps[0])
    test_facts = dataset.test.at_time(first_test_t)
    queries = test_facts[:5]
    print(f"predicting {len(queries)} queries at t={first_test_t} "
          f"(history up to t={forecaster.current_time})\n")

    scores = forecaster.predict_batch(queries, prediction_time=first_test_t)
    window = forecaster.window_builder.window_for(queries, prediction_time=first_test_t)

    for query, row in zip(queries, scores):
        s, r, true_o, _ = (int(v) for v in query)
        top5 = np.argsort(row)[::-1][:5]
        rank = int((row > row[true_o]).sum()) + 1
        marks = ["*" if c == true_o else " " for c in top5]
        print(f"query (e{s}, r{r}, ?):  true=e{true_o} (rank {rank})")
        for c, mark in zip(top5, marks):
            print(f"   {mark} e{int(c)}  score={row[c]:+.3f}")

    # Why: the globally relevant graph wired into this prediction
    print(f"\nglobally relevant graph: {window.global_graph.num_edges} edges "
          f"covering {len(window.global_graph.active_nodes())} entities")

    # Why: the self-gating balance between local evolution and global
    # relevance (Theta near 1 => trust the global encoder)
    state = model.encode(window)
    if config.use_self_gating_global:
        e_local = model.entity_embedding.all()
        theta = model.global_gate.gate_values(state.entity_matrix)
        print(f"global/local gate Theta: mean={theta.data.mean():.3f} "
              f"(std {theta.data.std():.3f})")


if __name__ == "__main__":
    main()
