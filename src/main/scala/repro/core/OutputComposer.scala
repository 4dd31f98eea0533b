package repro.core

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** A contiguous run of matching frames of one scene — a "video snippet"
  * in the paper's saveVideos output.
  */
final case class Snippet(sceneId: Long, startFrame: Int, endFrame: Int) {
  def nFrames: Int = endFrame - startFrame + 1
}

/** Output Composer (§5.2.4): formats query-engine results for observation.
  * There are no pixels in this reproduction, so saveVideos emits snippet
  * manifests (scene + frame ranges, i.e. exactly what would be encoded)
  * instead of encoded video files — see DESIGN.md §2.
  */
object OutputComposer {

  /** Gaps of up to this many frames are bridged, so a briefly-lost object
    * stays in one snippet.
    */
  val MergeGap = 12

  /** Distinct matching frames merged into snippets (see `MergeGap`). */
  def snippets(resultRows: DataFrame): Seq[Snippet] = {
    val frames = resultRows.select(col("sceneId"), col("frameIdx"))
      .distinct()
      .collect()
      .map(r => (r.getLong(0), r.getInt(1)))
      .groupBy(_._1)
      .view.mapValues(_.map(_._2).sorted.toVector)
      .toMap

    frames.toSeq.sortBy(_._1).flatMap { case (sid, fs) =>
      val out = Vector.newBuilder[Snippet]
      var start = fs.head
      var prev  = fs.head
      fs.tail.foreach { f =>
        if (f - prev > MergeGap + 1) {
          out += Snippet(sid, start, prev)
          start = f
        }
        prev = f
      }
      out += Snippet(sid, start, prev)
      out.result()
    }
  }

  /** Write the snippet manifest as JSON lines; returns the snippets. */
  def saveVideos(resultRows: DataFrame, path: String): Seq[Snippet] = {
    val snips = snippets(resultRows)
    val lines = snips.map { s =>
      s"""{"sceneId": ${s.sceneId}, "startFrame": ${s.startFrame}, "endFrame": ${s.endFrame}}"""
    }
    val p = Paths.get(path)
    if (p.getParent != null) Files.createDirectories(p.getParent)
    Files.write(p, lines.mkString("\n").getBytes(StandardCharsets.UTF_8))
    snips
  }

  /** The matched Movable Objects themselves (getObjects): their full
    * per-frame samples (sceneId, frameIdx, oid, otype, x, y), restricted
    * to the matched object ids. The query engine's derived columns of
    * `objs` are not part of a sample.
    *
    * `resultRows` is read once: every object column of a match is
    * exploded into one (sceneId, oid) list, whose distinct ids are
    * broadcast to the samples.
    */
  def getObjects(resultRows: DataFrame, objs: DataFrame): DataFrame = {
    val samples = objs.select("sceneId", "frameIdx", "oid", "otype", "x", "y")
    val oidCols = resultRows.columns.filter(_.endsWith("_oid"))
    if (oidCols.isEmpty) return samples.limit(0)
    val matched = resultRows
      .select(col("sceneId"), explode(array(oidCols.map(col): _*)).as("oid"))
      .distinct()
    samples.join(broadcast(matched), Seq("sceneId", "oid"))
  }
}
