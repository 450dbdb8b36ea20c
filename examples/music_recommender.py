"""The paper's running example: a song-recommendation data product.

An online music service backed by Velox, exercised over the TCP
front-end exactly as a web application would use it:

* a catalog of songs with planted listener preferences,
* the Velox server process serving ``predict`` / ``top_k`` / ``observe``
  over the binary framed protocol,
* simulated listeners whose sessions mix radio-style topK requests with
  explicit ratings,
* the "DeadHead problem": bandit-driven topK occasionally plays a deep
  cut to learn whether the listener is secretly a fan (paper Section 5),
* model staleness: taste drifts mid-run, the manager detects the loss
  spike and retrains automatically.

Run:  python examples/music_recommender.py
"""

import time

import numpy as np

from repro import Velox, VeloxConfig
from repro.batch import BatchContext
from repro.core.models import MatrixFactorizationModel
from repro.core.offline import als_train
from repro.data import SynthLensConfig, generate_synthlens
from repro.frontend import (
    ObserveApiRequest,
    PipelinedClient,
    PredictApiRequest,
    TopKApiRequest,
    VeloxServer,
)

NUM_LISTENERS = 120
NUM_SONGS = 150


def train_and_deploy():
    """Offline-train the catalog model and stand up the serving tier."""
    lens = generate_synthlens(
        SynthLensConfig(
            num_users=NUM_LISTENERS, num_items=NUM_SONGS, rank=6,
            ratings_per_user_mean=30, min_ratings_per_user=20, seed=99,
        )
    )
    batch = BatchContext(default_parallelism=4)
    als = als_train(
        batch,
        [(r.uid, r.item_id, r.rating) for r in lens.ratings],
        rank=6,
        num_items=NUM_SONGS,
        num_iterations=6,
    )
    model = MatrixFactorizationModel(
        "songs", als.item_factors, als.item_bias, als.global_mean
    )
    weights = {
        uid: model.pack_user_weights(als.user_factors[uid], als.user_bias[uid])
        for uid in als.user_factors
    }
    velox = Velox.deploy(
        VeloxConfig(
            num_nodes=4,
            staleness_window=50,
            min_observations_for_staleness=150,
            staleness_loss_ratio=2.0,
            bandit_exploration=5.0,
        ),
        auto_retrain=True,
    )
    velox.add_model(model, initial_user_weights=weights)
    return velox, lens


def listener_taste(lens, drifted: bool):
    """The environment: listeners' true ratings, optionally drifted."""

    def taste(uid: int, song: int) -> float:
        score = lens.true_score(uid, song)
        if drifted:
            # Tastes inverted around the midpoint: yesterday's hits flop.
            score = 5.5 - score
        return float(np.clip(score + np.random.default_rng((uid, song)).normal(0, 0.2), 0.5, 5.0))

    return taste


def main() -> None:
    velox, lens = train_and_deploy()
    rng = np.random.default_rng(1)

    with VeloxServer(velox) as server:
        print(f"Velox serving songs on {server.host}:{server.port}")
        with PipelinedClient(server.host, server.port) as client:
            # -- a radio session -------------------------------------------------
            listener = 17
            slate = [int(s) for s in rng.choice(NUM_SONGS, size=20, replace=False)]
            response = client.call(
                TopKApiRequest(uid=listener, items=tuple(slate), k=5)
            )
            playlist = response.payload["items"]
            print(f"\nlistener {listener}'s greedy playlist:")
            for entry in playlist:
                print(f"  song {entry['item']:>3}  predicted {entry['score']:.2f}")

            # -- the DeadHead problem -------------------------------------------
            # Bandit-ranked topK mixes in uncertain songs to learn faster.
            explored = client.call(
                TopKApiRequest(uid=listener, items=tuple(slate), k=5, policy="linucb")
            )
            bandit_items = {e["item"] for e in explored.payload["items"]}
            greedy_items = {e["item"] for e in playlist}
            deep_cuts = bandit_items - greedy_items
            print(f"\nbandit playlist explores deep cuts: {sorted(deep_cuts)}")

            # -- feedback loop: listeners rate what they hear ---------------------
            taste = listener_taste(lens, drifted=False)
            print("\nsimulating 300 listening sessions with feedback ...")
            for __ in range(300):
                uid = int(rng.integers(NUM_LISTENERS))
                slate = tuple(int(s) for s in rng.choice(NUM_SONGS, 15, replace=False))
                top = client.call(TopKApiRequest(uid=uid, items=slate, k=1, policy="linucb"))
                song = top.payload["items"][0]["item"]
                rating = taste(uid, song)
                client.call(ObserveApiRequest(uid=uid, item=song, label=rating))
            health = client.call(PredictApiRequest(uid=listener, item=0))
            print(f"model still v{velox.model().version}; serving fine: "
                  f"{health.payload['score']:.2f}")

            # -- taste drift triggers automatic retraining ------------------------
            # The observe that finds the model stale only starts the
            # retrain; serving keeps answering while it trains.
            print("\ntastes drift: yesterday's hits start flopping ...")
            drifted = listener_taste(lens, drifted=True)
            sessions = 0
            started = False
            while not started and sessions < 2000:
                uid = int(rng.integers(NUM_LISTENERS))
                song = int(rng.integers(NUM_SONGS))
                response = client.call(
                    ObserveApiRequest(uid=uid, item=song, label=drifted(uid, song))
                )
                started = response.payload["retrained"]
                sessions += 1
            if started:
                served = 0
                deadline = time.monotonic() + 60.0
                while not velox.manager.retrain_events and time.monotonic() < deadline:
                    client.call(PredictApiRequest(uid=served % NUM_LISTENERS, item=0))
                    served += 1
                event = velox.manager.retrain_events[-1]
                print(
                    f"manager detected staleness after {sessions} drifted sessions; "
                    f"{served} predictions served while it retrained to "
                    f"v{event.new_version} "
                    f"({event.observations_used} observations, "
                    f"reason: {event.reason!r})"
                )
            else:
                print("no retrain triggered within the session budget")

    print("\nversion history:")
    for record in velox.registry.history("songs"):
        print(f"  v{record.version}: {record.note}")


if __name__ == "__main__":
    main()
