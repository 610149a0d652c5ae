package repro.core

import repro.SparkSpec
import repro.baselines.Harp

class WalksSpec extends SparkSpec {

  test("every walker rejects a graph with no start nodes") {
    val empty = CompactGraph.build(Seq.empty)
    val walkers: Seq[(String, () => Any)] = Seq(
      "RandomWalker" -> (() => RandomWalker.corpus(spark, empty, RandomWalker.WalkConfig())),
      "Node2VecWalker" -> (() => Node2VecWalker.corpus(spark, empty, Node2VecWalker.N2VConfig())),
      "Harp" -> (() => Harp.train(spark, empty, Harp.Config())))
    walkers.foreach { case (name, walk) =>
      val e = intercept[IllegalArgumentException](walk())
      assert(e.getMessage.contains("no start nodes"), s"$name: ${e.getMessage}")
    }
  }
}
